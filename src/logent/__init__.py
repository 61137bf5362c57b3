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
    product_measure,
    quadratic_entropy,
)
from .partitions import (
    DEFAULT_ENUMERATION_LIMIT,
    PairRelation,
    Partition,
    Universe,
    bell_number,
    discrete_partition,
    dit_set,
    enumerate_partitions,
    implication,
    indiscrete_partition,
    indit_set,
    interior,
    join,
    lattice_cover_edges,
    make_partition,
    meet,
    mutual_dit_set,
    mutual_dit_set_blockform,
    partition_from_equivalence,
    refines,
    rst_closure,
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

# The Monte Carlo estimators need numpy; they load on first use, so that
# importing the package (and every exact computation) stays stdlib-only.
_SAMPLING_NAMES = frozenset(
    {
        "SampleReport",
        "average_difference_rate",
        "pair_distinction_rate",
        "typical_count_log",
        "typical_message_stats",
    }
)


def __getattr__(name: str):
    if name in _SAMPLING_NAMES:
        from . import sampling

        return getattr(sampling, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SAMPLING_NAMES)
