"""Partition logic on finite sets with its two dual information measures.

Logical entropy counts distinctions (normalized or product measure of a dit
set, 1 - sum p^2 for a distribution); Shannon entropy counts the binary
partitions needed to make those distinctions.  The package computes both
families, the conversion bridge between them, and verifies their shared
identities by exhaustive small-universe sweeps and seeded randomized suites.
"""

from .errors import (
    DomainError,
    InvalidDistanceMatrixError,
    InvalidDistributionError,
    InvalidPartitionError,
    LimitExceededError,
    LogentError,
    NotEquivalenceError,
    ParseError,
    SizeMismatchError,
)
from .logical import (
    DistanceMatrix,
    Distribution,
    JointDistribution,
    MixingReport,
    block_probabilities,
    identification_probability,
    joint_logical_entropy,
    logical_conditional_joint,
    logical_conditional_partition,
    logical_cross_entropy,
    logical_divergence,
    logical_entropy_dist,
    logical_entropy_partition,
    logical_mutual_joint,
    logical_mutual_partition,
    mixing_entropy,
    quadratic_entropy,
)
from .partitions import (
    DEFAULT_ENUMERATION_LIMIT,
    Partition,
    Universe,
    bell_number,
    discrete_partition,
    enumerate_partitions,
    implication,
    indiscrete_partition,
    join,
    lattice_cover_edges,
    make_partition,
    meet,
    refines,
)
from .shannon import (
    StirlingReport,
    bit_to_dit,
    dit_bit_transform,
    dit_to_bit,
    kl_divergence,
    shannon_conditional_joint,
    shannon_conditional_partition,
    shannon_cross_entropy,
    shannon_entropy_dist,
    shannon_entropy_partition,
    shannon_hartley,
    shannon_mutual_joint,
    shannon_mutual_partition,
    stirling_entropy,
    symmetrized_cross_entropy,
    symmetrized_kl_divergence,
)

__version__ = "0.1.0"

# These names load their module on first use: the Monte Carlo estimators need
# numpy, and the dense specification serves the suites only, so importing the
# package (and every exact computation) stays stdlib-only and builds no relation.
_LAZY_NAMES = dict.fromkeys(
    ("SampleReport", "average_difference_rate", "pair_distinction_rate", "typical_count_log",
     "typical_message_stats"),
    "sampling",
) | dict.fromkeys(
    ("PairRelation", "dit_set", "indit_set", "interior", "mutual_dit_set",
     "mutual_dit_set_blockform", "partition_from_equivalence", "product_measure", "rst_closure"),
    "spec",
)


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_NAMES))
