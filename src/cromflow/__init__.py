"""Component reduced-order modeling of steady incompressible Navier-Stokes flow."""

__version__ = "0.1.0"

from .geometry import (
    ComponentMesh,
    GridConfig,
    MeshError,
    SideBC,
    generate_empty_mesh,
    generate_obstacle_mesh,
    load_mesh,
    save_mesh,
)
from .femspace import TaylorHoodSpace
from .weakforms import (
    ComponentOperators,
    InterfaceBlocks,
    assemble_interface_blocks,
    build_component_operators,
    penalty_strength,
)
from .fom import (
    GlobalFomSystem,
    SolveReport,
    assemble_global,
    mms_convergence,
    solve_newton,
    solve_stokes,
)
from .reduction import (
    PodBasis,
    SnapshotSet,
    build_advection_tensor,
    build_pod_basis,
    enrich_and_orthonormalize,
    missing_energy,
    pod,
    project_linear,
    supremizers,
)
from .eqp import EqpManifest, EqpRule, build_manifest, nnls, train_rule
from .rom import (
    GlobalRomSystem,
    assemble_global_rom,
    lift,
    relative_errors,
    solve_rom_newton,
)
from .harness import ExperimentConfig, InflowSample, bc_from_sample, sample_inflow, train_model
