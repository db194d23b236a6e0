"""Feature-set comparison with empirical divergences, kernels on densities,
and supervised projection learning."""

from .dataset import Dataset, FeatureSet, SyntheticSpec, generate_synthetic, load_dataset, save_dataset, split_gallery_probe
from .density import Bandwidth, DensityModel, log_density_batch, silverman_bandwidth
from .divergence import (
    DivergenceKind,
    DivergenceMatrix,
    cross_divergence_matrix,
    divergence_matrix,
    hellinger_empirical,
    jeffrey_empirical,
)
from .classify import KfdaModel, accuracy, kfda_fit, kfda_project, nn_classify
from .dimred import AffinityMatrix, DrConfig, build_affinity, dr_cost, dr_euclidean_gradient, learn_projection
from .kernels import SIGMA_GRID, GramMatrix, KernelFamily, KernelSpec, cross_gram, gram, kernel_from_divergence, min_eigenvalue
from .manifold import CgOptions, CgResult, cg_minimize, retract, tangent_project

__version__ = "0.1.0"
