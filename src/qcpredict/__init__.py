"""qcpredict: predict good compilation options for quantum circuits.

A circuit is compiled against a fleet of device models under every available
combination of device, compiler family, and setting; the expected-fidelity
score of each result ranks the options. A random forest trained on those
rankings then predicts the best option from cheap static circuit features,
skipping the brute-force sweep.
"""
from .circuit import (
    BARRIER,
    CANONICAL_GATES,
    MEASURE,
    Circuit,
    CircuitError,
    Instruction,
    barrier,
    circuit_depth,
    gate,
    interaction_graph,
    measure,
    validate,
)
from .compiler import (
    CompilationOption,
    CompileError,
    CompiledResult,
    InfeasibleError,
    compile_circuit,
    enumerate_options,
    is_device_legal,
    optimize,
    parse_option,
)
from .devices import (
    Calibration,
    DeviceError,
    DeviceModel,
    builtin_devices,
    load_device,
    load_device_dir,
    write_device,
)
from .features import (
    FeatureSchema,
    extract_features,
    full_schema,
    prune_constant_features,
)
from .generators import FAMILIES, generate_corpus
from .ml import (
    ForestModel,
    ModelFormatError,
    feature_importance,
    fit_forest,
    grid_search_cv,
    load_model,
    predict,
    predict_many,
    predict_top_k,
    save_model,
)
from .pipeline import (
    EvalReport,
    LabeledSample,
    PipelineError,
    evaluate,
    label_dataset,
    runtime_compare,
    split,
    train_model,
)
from .qasm import QasmError, parse_qasm, to_qasm
from .scoring import (
    EvalScore,
    CalibrationError,
    evaluate_score,
    rank_options,
)
from .simulator import SimulationError, check_equivalence, simulate_statevector

__version__ = "0.1.0"

__all__ = [
    "BARRIER",
    "CANONICAL_GATES",
    "MEASURE",
    "Calibration",
    "CalibrationError",
    "Circuit",
    "CircuitError",
    "CompilationOption",
    "CompileError",
    "CompiledResult",
    "DeviceError",
    "DeviceModel",
    "EvalReport",
    "EvalScore",
    "FAMILIES",
    "FeatureSchema",
    "ForestModel",
    "InfeasibleError",
    "Instruction",
    "LabeledSample",
    "ModelFormatError",
    "PipelineError",
    "QasmError",
    "SimulationError",
    "barrier",
    "builtin_devices",
    "check_equivalence",
    "circuit_depth",
    "compile_circuit",
    "enumerate_options",
    "evaluate",
    "evaluate_score",
    "extract_features",
    "feature_importance",
    "fit_forest",
    "full_schema",
    "gate",
    "generate_corpus",
    "grid_search_cv",
    "interaction_graph",
    "is_device_legal",
    "label_dataset",
    "load_device",
    "load_device_dir",
    "load_model",
    "measure",
    "optimize",
    "parse_option",
    "parse_qasm",
    "predict",
    "predict_many",
    "predict_top_k",
    "prune_constant_features",
    "rank_options",
    "runtime_compare",
    "save_model",
    "simulate_statevector",
    "split",
    "to_qasm",
    "train_model",
    "validate",
    "write_device",
]
