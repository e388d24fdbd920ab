"""Bi-fractional spectral transforms and filtering on product graphs.

The package is organized bottom-up: ``graphs`` builds factor graphs and
Cartesian products, ``spectral`` provides eigendecompositions and
fractional matrix powers, ``transforms`` assembles the separable product
transforms, ``wiener`` designs statistically optimal diagonal filters,
``learn`` fits orders and filters by gradient descent, and
``synthetic``/``timevertex``/``deblur`` are the experiment drivers behind
the ``gbfrft`` command line tool.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import (
    ConstantSeries,
    DefectiveMatrix,
    DivergedLoss,
    GbfrftError,
    IllConditionedSystem,
    NonFinite,
    NonHermitianStatistics,
    ParseError,
    RaggedRows,
    SchemaMismatch,
    ShapeMismatch,
    SingularBlend,
    SingularPower,
    SizeCapExceeded,
)
from .graphs import Graph, ProductGraph, cartesian_product, make_knn_graph, make_named_graph
from .spectral import FractionalOperator, SpectralBasis, eig_general, fractional_power
from .transforms import (
    DenseOperator,
    ProductTransform,
    apply,
    dfrft,
    dft_matrix,
    gfrft,
    gfrft2d,
    hybrid_transform,
    jfrft,
    path_graph,
    transform_2d,
)
from .wiener import (
    FactoredStatistics,
    FilterDesign,
    ObservationModel,
    assemble_normal_equations,
    assemble_normal_equations_naive,
    basis_matrices,
    draw_observations,
    expected_mse,
    grid_search,
    psd_clip,
    solve_filter,
)
from .learn import (
    TrainConfig,
    TrainTrace,
    apply_filter,
    gradients,
    loss,
    train,
    train_hybrid,
    train_jfrft,
)
from .metrics import frame_metrics, gaussian_blur, mse, psnr, ssim
from .synthetic import SyntheticSpec, autocorrelation_matrix, build_observation_model, run_synthetic, sample_gaussian
from .timevertex import TimeVertexDataset, ingest_timevertex, run_timevertex
from .deblur import FrameSequence, blur_sequence, patchify, reassemble, run_deblur

# the names imported above, without the submodules they come from
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
