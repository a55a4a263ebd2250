"""Dense statevector backend: the slow, trusted ground truth.

States are real float64 arrays over N addresses, 2N once step 3 adjoins the
ancilla as the high qubit (entry bN + x: ancilla bit b, address x).  Every
operator is a real reflection; complex input is refused rather than cast,
since a cast would silently drop imaginary parts.

States are immutable values on read-only arrays; the uniform start is a
broadcast view of one scalar, so it costs no array.  All operator arithmetic is
in `apply_stages`, which runs a whole stage list on one private copy of the
input: a stage of Grover rounds as one rotation, `_grover_rounds`, which the
reduced backend shares, and every other operator in place, in order.  A run
that adjoins the ancilla copies its input into branch 0 of a zeroed 2N array,
`_ancilla_layout`, and holds branch 1 as one scalar, written once at the end,
so at large N all but one page of branch 1 stays off the resident set.
Public operators are one-stage lists, `partial_search.apply_stages` makes one
call per run, oracle calls count queries, and each result checks its norm.

The instance types (`BlockConfig`, `OperatorTag`, `InvalidInstanceError`, the
limits) need no arrays, so the dense functions import numpy on first use and a
reduced run never loads it; the records subclass `Record` to skip dataclasses.
"""
from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

    from .reduced import ReducedState

# Dense arrays above this address count are refused; use the reduced
# backend for large N.
DENSE_CAP = 2**24
# Largest N: every address count stays an exact float.
MAX_N = 2**52

_NORM_ATOL = 1e-9
_SLICE = 2**14  # most addresses `block_probabilities` squares at a time


class Record:
    """A frozen dataclass in plain code: the fields are a subclass's annotations, a class attribute a default."""

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        names, defaults = self.__match_args__, vars(type(self))
        try:  # the fields past the positional ones, by keyword or else by default
            args += tuple(kwargs.pop(name) if name in kwargs else defaults[name] for name in names[len(args) :])
        except KeyError as missing:
            raise TypeError(f"{type(self).__name__} is missing the field {missing}") from None
        if kwargs or len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes each of the fields {names} once")
        vars(self).update(zip(names, args))  # __dict__ holds the fields alone, in order: eq, hash and repr read it
        self.__post_init__()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
    __post_init__ = object.__init__  # no checks, unless a record defines its own

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in vars(self).items())})"


class InvalidInstanceError(ValueError):
    """Invalid user input: a malformed instance (bad N, K not dividing N,
    target out of range, N beyond the dense backend cap) or a bad parameter
    such as epsilon or a step count.  The CLI exits 1 on exactly these."""


class BlockConfig(Record):
    """A search instance: N addresses in K equal contiguous blocks, one target.

    Blocks are contiguous address ranges (block of x = x // (N/K)), so for
    powers of two a block index is exactly the leading address bits.  N may
    be as large as 2**52 (the reduced backend's float-exact range); divisibility
    checks are done in integer arithmetic.
    """

    n_addresses: int
    n_blocks: int
    target: int

    def __post_init__(self) -> None:
        n, k, t = self.n_addresses, self.n_blocks, self.target
        if n < 2:
            raise InvalidInstanceError(f"need at least 2 addresses, got N={n}")
        if n > MAX_N:
            raise InvalidInstanceError(f"N={n} exceeds the float-exact limit 2**52")
        if not 1 <= k <= n:
            raise InvalidInstanceError(f"block count K={k} must be in [1, N={n}]")
        if n % k:
            raise InvalidInstanceError(f"K={k} does not divide N={n}")
        if not 0 <= t < n:
            raise InvalidInstanceError(f"target {t} outside [0, {n})")

    @property
    def block_size(self) -> int:
        return self.n_addresses // self.n_blocks

    @property
    def target_block(self) -> int:
        return self.target // self.block_size

    def block_of(self, address: int) -> int:
        return address // self.block_size


class OperatorTag(enum.Enum):
    """The operators a pipeline script may contain."""

    ORACLE = "oracle"
    GLOBAL_DIFFUSION = "global_diffusion"
    BLOCK_DIFFUSION = "block_diffusion"
    STEP3 = "step3"


BLOCK_ROUND = (OperatorTag.ORACLE, OperatorTag.BLOCK_DIFFUSION)
GLOBAL_ROUND = (OperatorTag.ORACLE, OperatorTag.GLOBAL_DIFFUSION)
Stage = tuple[tuple[OperatorTag, ...], int]  # (round_ops, count)


class DenseState(Record):
    """Full amplitude description of the register.

    Without the ancilla, ``amplitudes`` has length N and entry x is the
    amplitude of address x.  With the ancilla, length is 2N in branch-major
    order: entry bN + x is the amplitude of address x with ancilla bit b.
    A float64 array is adopted without a copy and marked read-only.
    """

    amplitudes: np.ndarray
    n_addresses: int
    has_ancilla: bool = False
    queries: int = 0

    def __post_init__(self) -> None:
        import numpy as np
        if np.iscomplexobj(self.amplitudes):
            raise InvalidInstanceError("amplitudes must be real; got a complex array")
        amp = np.asarray(self.amplitudes, dtype=np.float64)
        expected = 2 * self.n_addresses if self.has_ancilla else self.n_addresses
        if amp.shape != (expected,):
            raise InvalidInstanceError(
                f"amplitude array of length {amp.shape} does not match "
                f"N={self.n_addresses}, ancilla={self.has_ancilla}"
            )
        norm2 = float(amp @ amp)
        if not abs(norm2 - 1.0) <= _NORM_ATOL:
            raise InvalidInstanceError(f"state is not normalized: |amp|^2 = {norm2!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def branch(self, bit: int) -> np.ndarray:
        """Amplitudes of one ancilla branch, in address order."""
        if bit not in (0, 1):
            raise ValueError(f"ancilla bit must be 0 or 1, got {bit!r}")
        if bit and not self.has_ancilla:
            raise ValueError("state has no ancilla")
        n = self.n_addresses
        return self.amplitudes[bit * n : bit * n + n] if self.has_ancilla else self.amplitudes

    def address_probabilities(self) -> np.ndarray:
        """Per-address probability, summed over ancilla branches."""
        return _probabilities(self, 0, self.n_addresses)


def uniform_state(n_addresses: int) -> DenseState:
    """Equal superposition of all addresses, without the ancilla, as a read-only broadcast of one scalar (no array
    of N); refuses N > DENSE_CAP."""
    if n_addresses < 2:
        raise InvalidInstanceError(f"need at least 2 addresses, got N={n_addresses}")
    _check_dense_cap(n_addresses)
    import numpy as np
    return DenseState(np.broadcast_to(1.0 / math.sqrt(n_addresses), (n_addresses,)), n_addresses)


def attach_ancilla(state: DenseState) -> DenseState:
    """Adjoin an ancilla qubit in state 0 (branch 1 all zero); a run with step 3 does this itself."""
    if state.has_ancilla:
        raise ValueError("state already has an ancilla")
    return DenseState(_ancilla_layout(state.amplitudes, state.n_addresses), state.n_addresses, True, state.queries)


def invert_target(state: DenseState, cfg: BlockConfig) -> DenseState:
    """Oracle call: flip the sign of the target amplitude (both branches); counts one query."""
    return apply_stages(state, [((OperatorTag.ORACLE,), 1)], cfg)


def global_diffusion(state: DenseState) -> DenseState:
    """Inversion about the global average: x -> 2m - x over all addresses."""
    # Any config of this N will do: the inversion reads neither blocks nor target.
    return apply_stages(state, [((OperatorTag.GLOBAL_DIFFUSION,), 1)], BlockConfig(state.n_addresses, 1, 0))


def block_diffusion(state: DenseState, cfg: BlockConfig) -> DenseState:
    """Inversion about the average within each block, blocks in parallel."""
    return apply_stages(state, [((OperatorTag.BLOCK_DIFFUSION,), 1)], cfg)


def step3_transfer(state: DenseState, cfg: BlockConfig) -> DenseState:
    """Move the target out to ancilla branch 1, then invert branch 0 about its mean.

    An ancilla-free state gains the ancilla.  The move-out is one oracle
    query; the inversion is controlled on the ancilla being 0.  When the branch-0
    mean is half the non-target-block amplitude, those states end at exactly zero.
    """
    return apply_stages(state, [((OperatorTag.STEP3,), 1)], cfg)


def apply_stages(state: DenseState, stages: Sequence[Stage], cfg: BlockConfig) -> DenseState:
    """Each stage's ``count`` rounds on one private copy of ``state``'s array: 2 or more Grover rounds on an
    ancilla-free state as one rotation, other operators in place, in order; a run that adjoins the ancilla lays the
    copy out for it first, in branch 0, and writes branch 1 at the end."""
    _check_shapes(state, cfg)
    import numpy as np
    ancilla, queries, n, t = state.has_ancilla, state.queries, cfg.n_addresses, cfg.target
    adjoins = not ancilla and any(count > 0 and OperatorTag.STEP3 in ops for ops, count in stages)
    amp = _ancilla_layout(state.amplitudes, n) if adjoins else state.amplitudes.copy()
    branch0, d = amp[:n], amp[n + t] if ancilla else 0.0  # branch 1 is the scalar d at the target until the end
    for round_ops, count in stages:
        if round_ops in (GLOBAL_ROUND, BLOCK_ROUND) and count > 1 and not ancilla:
            # The rounds rotate (a_t, sqrt(size - 1) mu), mu the mean of the rest of the target's block (all N for a
            # global round); there each other entry keeps its deviation from mu, sign flipped every round, and each
            # other block reflects about its own mean every round.  One round runs below, bit-equal to the operators.
            size = n if round_ops == GLOBAL_ROUND else cfg.block_size
            blocks, row = branch0.reshape(-1, size), t // size
            sums = blocks.sum(axis=1, keepdims=True)
            mu = (sums[row, 0] - branch0[t]) / max(size - 1, 1)
            a_t, mu_out = _grover_rounds(branch0[t], mu, size, count)
            if count % 2:
                shift = 2.0 * (sums / size)
                shift[row] = mu_out + mu
                np.subtract(shift, blocks, out=blocks)
            else:
                blocks[row] += mu_out - mu
            branch0[t], queries = a_t, queries + count
            continue
        for _ in range(count):
            for op in round_ops:
                if op is OperatorTag.ORACLE:
                    branch0[t], d, queries = -branch0[t], -d, queries + 1
                elif op is OperatorTag.STEP3:
                    if abs(d) > _NORM_ATOL or state.has_ancilla and max(amp[n:].max(), -amp[n:].min()) > _NORM_ATOL:
                        raise ValueError("ancilla branch 1 must be empty before step 3")
                    branch0[t], d = d, branch0[t]  # the target swaps branches
                    np.subtract(2.0 * branch0.mean(), branch0, out=branch0)
                    ancilla, queries = True, queries + 1
                elif op in (OperatorTag.GLOBAL_DIFFUSION, OperatorTag.BLOCK_DIFFUSION):
                    if ancilla:
                        raise ValueError(f"{op.value.replace('_', ' ')} is defined on ancilla-free states")
                    size = n if op is OperatorTag.GLOBAL_DIFFUSION else cfg.block_size
                    blocks = branch0.reshape(-1, size)
                    np.subtract(2.0 * (blocks.sum(axis=1, keepdims=True) / size), blocks, out=blocks)
                else:
                    raise ValueError(f"unknown operator {op!r}")
    if ancilla:
        amp[n + t] = d
    return DenseState(amp, n, ancilla, queries)


def _grover_rounds(a: float, w: float, size: int, count: int) -> tuple[float, float]:
    """``count`` rounds of negating a, then inverting a and size - 1 copies of w about their mean."""
    if size == 1:
        # No w addresses: a round negates a and maps w to -w - 2a (w is never observed).
        sign = -1.0 if count % 2 else 1.0
        return sign * a, sign * (w + 2 * count * a)
    angle = count * (2 * math.asin(1.0 / math.sqrt(size)))
    cos, sin, root = math.cos(angle), math.sin(angle), math.sqrt(size - 1)
    return cos * a + sin * root * w, cos * w - sin * a / root


def block_probabilities(state: DenseState | ReducedState, cfg: BlockConfig) -> np.ndarray | tuple[float, ...]:
    """Probability of measuring each block index, summed over ancilla branches.  For a dense state it is equal bit
    for bit to summing ``address_probabilities`` per block, but squares at most ``_SLICE`` addresses at a time; a
    reduced state of ``cfg`` gives its own ``block_probabilities()``, without numpy."""
    from .reduced import ReducedState
    if isinstance(state, ReducedState):
        if cfg != state.cfg:
            raise InvalidInstanceError("config does not match the reduced state")
        return state.block_probabilities()
    _check_shapes(state, cfg)
    import numpy as np

    def block_sum(lo: int, n: int) -> float:  # numpy's pairwise split of n addresses, down to slices it sums whole
        if n <= _SLICE:
            return _probabilities(state, lo, lo + n).sum()
        half = n // 2 - n // 2 % 8
        return block_sum(lo, half) + block_sum(lo + half, n - half)

    m = cfg.block_size
    if m > _SLICE:
        return np.array([block_sum(lo, m) for lo in range(0, cfg.n_addresses, m)])
    rows, probs = _SLICE // m, np.empty(cfg.n_blocks)
    for lo in range(0, cfg.n_blocks, rows):
        probs[lo : lo + rows] = _probabilities(state, lo * m, (lo + rows) * m).reshape(-1, m).sum(axis=1)
    return probs


def _probabilities(state: DenseState, lo: int, hi: int) -> np.ndarray:
    """The probabilities of addresses lo..hi-1, summed over ancilla branches."""
    p = state.branch(0)[lo:hi] ** 2
    if state.has_ancilla:
        p += state.branch(1)[lo:hi] ** 2
    return p


def _ancilla_layout(branch0: np.ndarray | float, n: int, target: int = 0, moved_out: float = 0.0) -> np.ndarray:
    """A new zeroed 2N array in the ancilla layout: branch 0 is ``branch0`` (N amplitudes or one), branch 1 is empty
    but for ``moved_out`` at the target, and its pages that are never written are never resident at large N."""
    import numpy as np
    amp = np.zeros(2 * n)
    amp[:n] = branch0
    amp[n + target] = moved_out
    return amp


def _check_dense_cap(n_addresses: int) -> None:
    if n_addresses > DENSE_CAP:
        raise InvalidInstanceError(
            f"N={n_addresses} exceeds the dense backend cap {DENSE_CAP}; "
            "use the reduced backend for large N"
        )


def _check_shapes(state: DenseState, cfg: BlockConfig) -> None:
    if state.n_addresses != cfg.n_addresses:
        raise InvalidInstanceError(
            f"state has N={state.n_addresses} but config has N={cfg.n_addresses}"
        )
