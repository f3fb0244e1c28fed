"""Bosonic Fock basis for N particles on a two-band ring of L sites, and the
translation-symmetric kappa = 0 sector built from its orbits.

States are occupation tuples |n_1^a .. n_L^a ; n_1^b .. n_L^b>.  The full
basis is enumerated in a fixed order (leading mode occupation descending),
which fixes the order of the orbit representatives and so of the sector
basis.  One dict from every full-basis state to its representative's index
is the sector's only lookup.  Sector operators come out as `Csr`, numpy's
arrays of a canonical compressed sparse row matrix, so that building one
imports no scipy.sparse.

On a ring the simultaneous cyclic shift of both bands commutes with the
gauge-transformed Hamiltonian; grouping the basis into translation orbits
and keeping the equal-phase (kappa = 0) combination of each orbit cuts the
dimension by a factor of order L.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FockState",
    "Csr",
    "SymmetrySector",
    "full_dimension",
    "enumerate_fock",
    "translate",
    "ring_hops",
    "build_k0_sector",
    "project_initial_state",
    "DEFAULT_DIMENSION_CAP",
]

# Guards in-memory enumeration; (7, 7) needs 77520 states, so this leaves
# generous headroom without letting a typo exhaust memory.
DEFAULT_DIMENSION_CAP = 2_000_000


class FockState(NamedTuple):
    """Occupation numbers per site for the lower (a) and upper (b) band."""

    lower: tuple
    upper: tuple

    @property
    def n_sites(self) -> int:
        return len(self.lower)

    @property
    def n_particles(self) -> int:
        return sum(self.lower) + sum(self.upper)

    def __str__(self):
        return "|%s;%s>" % (",".join(map(str, self.lower)), ",".join(map(str, self.upper)))


def full_dimension(n_particles: int, n_sites: int) -> int:
    """Dimension (N + 2L - 1)! / [N! (2L - 1)!] of the fixed-N Fock space.

    Exact integer arithmetic; Python integers cannot silently overflow.
    """
    if n_particles < 0:
        raise ValueError(f"particle number must be non-negative, got {n_particles}")
    if n_sites < 1:
        raise ValueError(f"need at least one site, got {n_sites}")
    return math.comb(n_particles + 2 * n_sites - 1, n_particles)


def _compositions(total, modes):
    # all occupation tuples of `modes` modes summing to `total`,
    # leading occupation descending (so |N,0,...> comes first)
    if modes == 1:
        yield (total,)
        return
    for v in range(total, -1, -1):
        for rest in _compositions(total - v, modes - 1):
            yield (v,) + rest


def enumerate_fock(n_particles, n_sites, dimension_cap=DEFAULT_DIMENSION_CAP):
    """Complete, duplicate-free list of FockStates, leading occupation descending."""
    dim = full_dimension(n_particles, n_sites)
    if dim > dimension_cap:
        raise ValueError(
            f"Fock dimension {dim} for N={n_particles}, L={n_sites} exceeds the cap {dimension_cap}"
        )
    L = n_sites
    return [FockState(t[:L], t[L:]) for t in _compositions(n_particles, 2 * n_sites)]


def translate(state: FockState) -> FockState:
    """Cyclic shift l -> l+1 (mod L) applied to both bands simultaneously."""
    lo, up = state
    return FockState(lo[-1:] + lo[:-1], up[-1:] + up[:-1])


def ring_hops(occ: tuple):
    """(occupations after the hop, sqrt(n_src (n_dst + 1))) for each l -> l+1
    hop of one band on the ring; a single site has no distinct neighbour."""
    L = len(occ)
    if L < 2:
        return
    for src in range(L):
        if occ[src] == 0:
            continue
        dst = (src + 1) % L
        new = list(occ)
        new[src] -= 1
        new[dst] += 1
        yield tuple(new), math.sqrt(occ[src] * (occ[dst] + 1))


class Csr(NamedTuple):
    """A square sparse matrix in scipy's canonical compressed sparse row
    form: row i holds data[indptr[i]:indptr[i + 1]] at the sorted, distinct
    columns indices[indptr[i]:indptr[i + 1]].  `(data, indices, indptr)` is
    also the argument scipy.sparse.csr_matrix takes."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indptr) - 1

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.dim, dtype=self.indices.dtype), np.diff(self.indptr))


@dataclass(frozen=True)
class SymmetrySector:
    """The kappa = 0 translation-symmetric basis.

    Each basis vector is the equal-amplitude, normalized sum over one
    translation orbit.  `index` maps every state of the full basis to the
    index of its orbit's representative, so it holds the whole basis.
    """

    n_particles: int
    n_sites: int
    representatives: tuple
    orbit_sizes: np.ndarray
    index: dict  # FockState -> representative index, for every full-basis state
    upper_fractions: np.ndarray  # per representative: sum(upper) / N

    @property
    def dim(self) -> int:
        return len(self.representatives)

    @property
    def full_dim(self) -> int:
        return len(self.index)

    def lookup(self, state: FockState) -> int:
        """Representative index of any same-(N, L) Fock state: one dict
        lookup, KeyError for a state outside the full basis."""
        return self.index[state]

    def matrix(self, rule, columns=None) -> Csr:
        """An operator in sector coordinates, from `rule(rep)`: the (target
        state, amplitude) pairs of the operator applied to a representative.

        The operator is applied to the representative of column j only, so
        an element i <- j carries the orbit factor sqrt(orbit_j / orbit_i).
        Entries are sorted by row, then column, then the order they came in,
        and the values at one position are summed in that order, as scipy's
        coo -> csr conversion does.  Only the `columns` given (all by
        default) are visited.
        """
        sizes, index = self.orbit_sizes, self.index
        rows, cols, vals = [], [], []
        for j in range(self.dim) if columns is None else columns:
            for target, amp in rule(self.representatives[j]):
                i = index[target]
                rows.append(i)
                cols.append(j)
                vals.append(amp * math.sqrt(sizes[j] / sizes[i]))
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=complex)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        data = vals[first]
        np.add.at(data, np.cumsum(first)[~first] - 1, vals[~first])
        index_type = np.int32 if max(self.dim, len(data)) < 2**31 else np.int64
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[first], minlength=self.dim))))
        return Csr(data, cols[first].astype(index_type), indptr.astype(index_type))


def build_k0_sector(n_particles, n_sites, dimension_cap=DEFAULT_DIMENSION_CAP) -> SymmetrySector:
    """Group the full Fock basis into translation orbits and assemble kappa=0.

    The representative of each orbit is its lexicographically smallest state;
    representatives are listed in order of first encounter during the full
    enumeration, which makes the basis deterministic.
    """
    index = {}
    reps = []
    sizes = []
    for state in enumerate_fock(n_particles, n_sites, dimension_cap):
        if state in index:
            continue
        orbit = [state]
        s = translate(state)
        while s != state:
            orbit.append(s)
            s = translate(s)
        index.update(dict.fromkeys(orbit, len(reps)))
        reps.append(min(orbit))
        sizes.append(len(orbit))

    n = n_particles
    fractions = np.array([sum(rep.upper) / n for rep in reps]) if n else np.zeros(len(reps))
    return SymmetrySector(
        n_particles=n_particles,
        n_sites=n_sites,
        representatives=tuple(reps),
        orbit_sizes=np.asarray(sizes, dtype=np.int64),
        index=index,
        upper_fractions=fractions,
    )


def _lower_band_ground(sector: SymmetrySector) -> np.ndarray:
    """Sector coordinates of the ground state of the untilted lower-band
    hopping Hamiltonian (g = 0, upper band empty)."""
    zero_upper = [i for i, rep in enumerate(sector.representatives) if sum(rep.upper) == 0]
    if not zero_upper:
        raise ValueError("sector has no states with an empty upper band")

    # F = sum_l a^dag_{l+1} a_l on the ring within the sub-basis, K = F + F^T;
    # the hopping Hamiltonian is -t_a/2 * K, so its ground state maximizes K.
    # Lower-band hops keep the upper band empty, so F never leaves the sub-basis.
    hops = sector.matrix(
        lambda rep: ((FockState(new, rep.upper), amp) for new, amp in ring_hops(rep.lower)),
        zero_upper,
    )
    sub = np.zeros(sector.dim, dtype=np.intp)  # sector index -> sub-basis index
    sub[zero_upper] = np.arange(len(zero_upper))
    forward = np.zeros((len(zero_upper), len(zero_upper)))
    forward[sub[hops.rows()], sub[hops.indices]] = hops.data.real
    kin = forward + forward.T

    # dense solve keeps the result deterministic (no Lanczos start vector)
    _, vecs = np.linalg.eigh(-kin)
    ground = vecs[:, 0]
    if ground[int(np.argmax(np.abs(ground)))] < 0:
        ground = -ground
    coords = np.zeros(sector.dim, dtype=complex)
    coords[zero_upper] = ground
    return coords


def project_initial_state(spec, sector: SymmetrySector) -> np.ndarray:
    """Normalized kappa = 0 coordinate vector for an initial-state descriptor.

    Descriptors:
      - "unit-filling-lower": one particle per lower-band site (needs N = L);
        this state is translation invariant, so it is a single basis vector.
      - "lower-band-ground": ground state of the untilted, non-interacting
        lower-band hopping Hamiltonian within the sector.
      - an explicit FockState (or (lower, upper) tuple pair): its normalized
        equal-phase orbit sum, i.e. the sector basis vector of its orbit.
        Every orbit has a non-vanishing kappa = 0 component, so the explicit
        route cannot fail by projection.
    """
    if isinstance(spec, str):
        if spec == "unit-filling-lower":
            if sector.n_particles != sector.n_sites:
                raise ValueError(
                    "unit-filling-lower needs N = L, got "
                    f"N={sector.n_particles}, L={sector.n_sites}"
                )
            state = FockState((1,) * sector.n_sites, (0,) * sector.n_sites)
        elif spec == "lower-band-ground":
            return _lower_band_ground(sector)
        else:
            raise ValueError(f"unknown initial-state descriptor {spec!r}")
    else:
        lower, upper = spec
        state = FockState(tuple(lower), tuple(upper))
        if state.n_sites != sector.n_sites or len(state.upper) != sector.n_sites:
            raise ValueError(f"state {state} does not match L={sector.n_sites}")
        if state.n_particles != sector.n_particles:
            raise ValueError(f"state {state} does not hold N={sector.n_particles} particles")
        if any(n < 0 for n in state.lower + state.upper):
            raise ValueError(f"negative occupation in {state}")

    coords = np.zeros(sector.dim, dtype=complex)
    coords[sector.lookup(state)] = 1.0
    return coords
