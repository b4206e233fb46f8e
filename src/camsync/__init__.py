"""Two-view geometry and time-shift estimation for unsynchronized camera pairs."""

from .errors import (
    AllDegenerate,
    CamsyncError,
    CheiralityAmbiguous,
    DegenerateInput,
    MissingFrame,
    NeverImproved,
    NoRealSolution,
    NotEnoughCorrespondences,
    SingularModel,
    TrajectoryFormatError,
    UnreachableSpeed,
    ZeroVector,
)
from .geometry import (
    FUNDAMENTAL,
    HOMOGRAPHY,
    ImageSample,
    LinearizedCorrespondence,
    Trajectory,
    TwoViewModel,
    linearize,
)
from .pose import (
    CameraCalib,
    decompose_f,
    fundamental_from_calib,
    relative_pose,
    rotation_error,
    translation_error,
)
from .robust import (
    KIND_F_7PT,
    KIND_F_GEP,
    KIND_F_MIN,
    KIND_H_4PT,
    KIND_H_MIN,
    RansacParams,
    RansacResult,
    build_correspondences,
    ransac_estimate,
)
from .solvers import (
    CorrSet,
    SolverCandidate,
    solve_4pt_h,
    solve_7pt_f,
    solve_gep_f_beta,
    solve_min_f_beta,
    solve_min_h_beta,
)
from .sync import IterParams, SyncRun, iterative_sync
from .synth import GroundTruth, SceneSpec, generate_scene, inject_outliers
from .trajio import read_trajectories, sync_report_json, write_trajectories

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
