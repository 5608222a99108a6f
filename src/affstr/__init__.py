"""Exact string functions, weight multiplicities and characters for
untwisted affine Lie algebras, computed by folding the recursion fan into
the dominant chamber, with an independent unfolded-recursion oracle."""

from .algebra import (
    AffineWeight,
    AlgebraSpec,
    load_algebra,
    preset,
    to_root_basis,
)
from .errors import (
    AffstrError,
    ConfigurationError,
    CongruenceError,
    ConsistencyError,
    ConventionError,
    NonterminationError,
    OutOfWindowError,
    ResourceLimitError,
)
from .fan import Fan, FanVector, build_fan, verify_denominator
from .folding import (
    BaseWeightSet,
    FoldedFan,
    build_folded_fan,
    build_folded_fans,
)
from .strings import (
    BlockSystem,
    CongruenceClassId,
    StringTable,
    assemble_system,
    character,
    enumerate_class_weights,
    module_class,
    solve_strings,
    string_table,
    weight_multiplicity,
)
from .weyl import WeylOutcome, to_dominant

__version__ = "0.1.0"

_ORACLE_NAMES = ("RacahOracle", "certify", "euler_square_series", "level1_eta_series")


def __getattr__(name):
    # The oracle module is imported on first use: only certifying a table
    # needs it, so no other command pays for compiling it.
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
