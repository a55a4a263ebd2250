"""Dense statevector backend: the slow, trusted ground truth.

States are full amplitude arrays over N addresses (optionally doubled by
one ancilla qubit).  Every operator here is a real reflection, so a run
never leaves the real subspace and amplitudes are stored as float64;
complex input is refused rather than cast, since a cast would silently
drop imaginary parts.

States are immutable values: each operator returns a fresh state and the
backing arrays are marked read-only.  Oracle calls (`invert_target`,
`step3_transfer`) carry a query count on the state; diffusions are free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Dense arrays above this address count are refused; use the reduced
# backend for large N.
DENSE_CAP = 2**24

_NORM_ATOL = 1e-9


class InvalidInstanceError(ValueError):
    """Invalid user input: a malformed instance (bad N, K not dividing N,
    target out of range, N beyond the dense backend cap) or a bad parameter
    such as epsilon, tol or a step count.  The CLI exits 1 on exactly these."""


@dataclass(frozen=True)
class BlockConfig:
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
        if n > 2**52:
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

    @property
    def target_slot(self) -> int:
        """In-block address of the target."""
        return self.target % self.block_size

    def block_of(self, address: int) -> int:
        return address // self.block_size


@dataclass(frozen=True)
class DenseState:
    """Full amplitude description of the register.

    Without the ancilla, ``amplitudes`` has length N and entry x is the
    amplitude of address x.  With the ancilla, length is 2N in address-major
    order: entry 2x + b is the amplitude of address x with ancilla bit b.
    A float64 array is adopted without a copy and marked read-only.
    """

    amplitudes: np.ndarray
    n_addresses: int
    has_ancilla: bool = False
    queries: int = 0

    def __post_init__(self) -> None:
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
        if abs(norm2 - 1.0) > _NORM_ATOL:
            raise InvalidInstanceError(f"state is not normalized: |amp|^2 = {norm2!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def branch(self, bit: int) -> np.ndarray:
        """Amplitudes of one ancilla branch, in address order."""
        if not self.has_ancilla:
            if bit != 0:
                raise ValueError("state has no ancilla")
            return self.amplitudes
        return self.amplitudes[bit::2]

    def address_probabilities(self) -> np.ndarray:
        """Per-address probability, summed over ancilla branches."""
        p = self.amplitudes**2
        if self.has_ancilla:
            p = p[0::2] + p[1::2]
        return p


def uniform_state(n_addresses: int, cap: int = DENSE_CAP) -> DenseState:
    """Equal superposition of all addresses, without the ancilla; refuses N > cap."""
    if n_addresses < 2:
        raise InvalidInstanceError(f"need at least 2 addresses, got N={n_addresses}")
    _check_dense_cap(n_addresses, cap)
    return DenseState(np.full(n_addresses, 1.0 / math.sqrt(n_addresses)), n_addresses)


def attach_ancilla(state: DenseState) -> DenseState:
    """Adjoin an ancilla qubit in state 0 (branch 1 all zero)."""
    if state.has_ancilla:
        raise ValueError("state already has an ancilla")
    amp = np.zeros(2 * state.n_addresses)
    amp[0::2] = state.amplitudes
    return DenseState(amp, state.n_addresses, has_ancilla=True, queries=state.queries)


def invert_target(state: DenseState, cfg: BlockConfig) -> DenseState:
    """Oracle call: flip the sign of the target amplitude (both branches); counts one query."""
    _check_shapes(state, cfg)
    amp = state.amplitudes.copy()
    if state.has_ancilla:
        t = 2 * cfg.target
        amp[t] = -amp[t]
        amp[t + 1] = -amp[t + 1]
    else:
        amp[cfg.target] = -amp[cfg.target]
    return DenseState(amp, state.n_addresses, state.has_ancilla, state.queries + 1)


def global_diffusion(state: DenseState) -> DenseState:
    """Inversion about the global average: x -> 2m - x over all addresses."""
    if state.has_ancilla:
        raise ValueError("global diffusion is defined on ancilla-free states")
    amp = state.amplitudes
    mean = amp.mean()
    return DenseState(2.0 * mean - amp, state.n_addresses, False, state.queries)


def block_diffusion(state: DenseState, cfg: BlockConfig) -> DenseState:
    """Inversion about the average within each block, blocks in parallel."""
    _check_shapes(state, cfg)
    if state.has_ancilla:
        raise ValueError("block diffusion is defined on ancilla-free states")
    blocks = state.amplitudes.reshape(cfg.n_blocks, cfg.block_size)
    means = blocks.mean(axis=1, keepdims=True)
    return DenseState((2.0 * means - blocks).reshape(-1), state.n_addresses, False, state.queries)


def step3_transfer(state: DenseState, cfg: BlockConfig) -> DenseState:
    """Move the target out to ancilla branch 1, then invert branch 0 about its mean.

    The move-out is one oracle query; the following inversion is controlled on
    the ancilla being 0.  When the branch-0 mean equals half the amplitude of
    the non-target-block states, those states end at exactly zero.
    """
    _check_shapes(state, cfg)
    if not state.has_ancilla:
        raise ValueError("step 3 needs the ancilla qubit; call attach_ancilla first")
    if float(np.max(np.abs(state.branch(1)))) > _NORM_ATOL:
        raise ValueError("ancilla branch 1 must be empty before step 3")
    amp = state.amplitudes.copy()
    t = 2 * cfg.target
    amp[t], amp[t + 1] = amp[t + 1], amp[t]
    branch0 = amp[0::2]
    amp[0::2] = 2.0 * branch0.mean() - branch0
    return DenseState(amp, state.n_addresses, True, state.queries + 1)


def block_probabilities(state: DenseState, cfg: BlockConfig) -> np.ndarray:
    """Probability of measuring each block index, summed over ancilla branches."""
    _check_shapes(state, cfg)
    per_address = state.address_probabilities()
    return per_address.reshape(cfg.n_blocks, cfg.block_size).sum(axis=1)


def _check_dense_cap(n_addresses: int, cap: int = DENSE_CAP) -> None:
    if n_addresses > cap:
        raise InvalidInstanceError(
            f"N={n_addresses} exceeds the dense backend cap {cap}; "
            "use the reduced backend for large N"
        )


def _check_shapes(state: DenseState, cfg: BlockConfig) -> None:
    if state.n_addresses != cfg.n_addresses:
        raise InvalidInstanceError(
            f"state has N={state.n_addresses} but config has N={cfg.n_addresses}"
        )
