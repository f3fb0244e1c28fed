"""Bosonic Fock basis for N particles on a two-band ring of L sites, and the
translation-symmetric kappa = 0 sector built from its orbits.

A state is a row of 2L integer occupations, n_1^a .. n_L^a, n_1^b .. n_L^b.
The full basis is listed leading occupation descending, and a state's rank,
its place in that order, is a sum of binomial coefficients read off its
suffix sums (`_ranks`): below the full dimension, it cannot overflow.  The
order fixes the order of the orbit representatives and so of the sector
basis, and `SymmetrySector.orbit` maps each rank to its sector index.
`ladder` is the one matrix-element rule, and `SymmetrySector.operator`
applies it to each nonzero entry of a one-body matrix and a two-body tensor,
both given entry by entry.  Sector operators come out as `Csr`, numpy's
arrays of a canonical compressed sparse row matrix, so that building one
imports no scipy.sparse.  `Csr.from_entries`, the one rule that turns (row,
column, value) entries into that form, builds, sums and mirrors them.

On a ring the simultaneous cyclic shift of both bands commutes with the
gauge-transformed Hamiltonian; grouping the basis into translation orbits
and keeping the equal-phase (kappa = 0) combination of each orbit cuts the
dimension by a factor of order L.
"""
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "FockState",
    "Csr",
    "SymmetrySector",
    "full_dimension",
    "memory_shortfall",
    "ladder",
    "build_k0_sector",
    "project_initial_state",
]

# Guards in-memory enumeration; (8, 8) needs 490,314 states, so this leaves
# generous headroom without letting a typo exhaust memory.
DIMENSION_CAP = 2_000_000
# Peak memory of building the sector, per full-basis state, beside its
# occupations, which are listed once: int64 words for the rank table, the
# ranks, the shift as a permutation of them and two of its powers, the orbit
# data and the per-orbit arrays (tracemalloc: at most 11.7, at N = 5000,
# L = 1, where every orbit is a single state and the rank table weighs one
# word; 8.5 at N = L = 7 and 8; the listing itself takes at most 7.5).
SECTOR_WORDS = 12


class FockState(NamedTuple):
    """Occupation numbers per site for the lower (a) and upper (b) band:
    the type of an explicit initial state."""

    lower: tuple
    upper: tuple

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


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def memory_shortfall(what: str, need: int) -> str | None:
    """Why `what`, which needs about `need` bytes, cannot run here: it needs
    more than the physical memory.  None when it fits."""
    have = _physical_memory()
    if need <= have:
        return None
    return (f"{what} needs about {need / 2**20:,.1f} MiB, more than the "
            f"{have / 2**20:,.1f} MiB of physical memory")


def _basis(n_particles: int, n_sites: int) -> np.ndarray:
    """Every state of the full basis as a row of 2L occupations, leading
    occupation descending: row r is the state of rank r (see `_ranks`),
    unranked mode by mode into one preallocated array.  The bosons in modes
    i and after are the largest s with table[i - 1, s] <= the rank left, and
    that entry is taken off it."""
    table = _rank_table(n_particles, 2 * n_sites)
    basis = np.empty((full_dimension(n_particles, n_sites), 2 * n_sites),
                     dtype=np.min_scalar_type(n_particles))
    rank = np.arange(len(basis))
    before = np.full(len(basis), n_particles)  # the bosons in modes i - 1 and after
    for i, row in enumerate(table, 1):
        after = np.searchsorted(row, rank, side="right") - 1
        basis[:, i - 1] = before - after
        rank -= row[after]
        before = after
    basis[:, -1] = before
    return basis


def _sector_bytes(n_particles: int, n_sites: int) -> int:
    """Estimated peak bytes of `build_k0_sector`: the occupations and
    SECTOR_WORDS per full-basis state."""
    occupations = 2 * n_sites * np.min_scalar_type(n_particles).itemsize
    return full_dimension(n_particles, n_sites) * (occupations + 8 * SECTOR_WORDS)


def _rank_table(n_particles: int, modes: int) -> np.ndarray:
    """table[i - 1, s] = C(s + modes - i - 1, modes - i): the states before
    one whose modes from i on hold s that agree with it up to mode i - 1."""
    return np.array([[math.comb(s + modes - i - 1, modes - i) for s in range(n_particles + 1)]
                     for i in range(1, modes)], dtype=np.int64)


def _ranks(occupations: np.ndarray, table: np.ndarray, order) -> np.ndarray:
    """The rank of each row of `occupations` with its modes read in `order`:
    the sum over modes i >= 1 of table[i - 1, bosons in modes i and after]."""
    rank = np.zeros(len(occupations), dtype=np.int64)
    suffix = np.zeros_like(rank)
    for i in range(len(order) - 1, 0, -1):
        suffix += occupations[:, order[i]]
        rank += table[i - 1][suffix]
    return rank


def ladder(occupations: np.ndarray, creations, annihilations):
    """The normal-ordered string c^dag_i.. c_k.. of modes `creations` and
    `annihilations` on each row of `occupations`: the rows it does not
    annihilate, their occupations after it (same dtype) and the root of the
    product of its factors, n for each c and n + 1 for each c^dag."""
    targets = occupations.copy()
    weight = np.ones(len(targets))  # exact below 2**53, where int64 would wrap past 2**63
    for mode in reversed(annihilations):
        weight *= targets[:, mode]  # 0 on the rows the string annihilates, from here on
        targets[:, mode] -= 1
    for mode in reversed(creations):
        targets[:, mode] += 1
        weight *= targets[:, mode]
    (rows,) = np.nonzero(weight)
    return rows, targets[rows], np.sqrt(weight[rows])


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

    @classmethod
    def from_entries(cls, rows, cols, values, dim: int) -> "Csr":
        """The dim x dim matrix with `values` at (`rows`, `cols`): entries
        sorted by row, then column, then the order they came in, the values
        at one position summed in that order, and explicit zeros kept.  This
        is scipy's coo -> csr conversion and sum_duplicates, bit for bit
        where no row holds more than 16 entries (scipy sorts longer rows
        unstably)."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=complex)
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        data = values[first]
        np.add.at(data, np.cumsum(first)[~first] - 1, values[~first])
        index_type = np.int32 if max(dim, len(data)) < 2**31 else np.int64
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[first], minlength=dim))))
        return cls(data, cols[first].astype(index_type), indptr.astype(index_type))


@dataclass(frozen=True)
class SymmetrySector:
    """The kappa = 0 translation-symmetric basis: vector i is the normalized
    equal-amplitude sum over orbit i, whose lexicographically smallest state
    is row i of `occupations`.  `orbit` holds the sector index of every
    full-basis state by rank, and `rank_table` what ranks a state (`_ranks`).
    """

    n_particles: int
    n_sites: int
    occupations: np.ndarray  # (dim, 2L)
    orbit_sizes: np.ndarray
    orbit: np.ndarray  # (full_dim,)
    rank_table: np.ndarray
    upper_fractions: np.ndarray  # per representative: sum(upper) / N

    @property
    def dim(self) -> int:
        return len(self.occupations)

    @property
    def full_dim(self) -> int:
        return len(self.orbit)

    def locate(self, rows) -> np.ndarray:
        """The sector index of the orbit of each row of 2L occupations of N bosons."""
        rows = np.asarray(rows)
        return self.orbit[_ranks(rows, self.rank_table, range(rows.shape[1]))]

    def operator(self, one_body, two_body=None) -> Csr:
        """sum_ij h_ij c^dag_i c_j + sum_ijkl v_ijkl c^dag_i c^dag_j c_k c_l
        in sector coordinates, for h and v given by their entries, mappings
        from modes (i, j) and (i, j, k, l) to coefficients (a dense array m
        as {modes: m[modes] for modes in zip(*np.nonzero(m))}): one `ladder`
        per nonzero entry, h's then v's, each in row-major order.  Strings
        that keep every occupation have integer amplitudes, summed per
        coefficient and each sum scaled once into the diagonal, the first
        block; any other entry from column j's representative into orbit i
        is element i <- j, times sqrt(orbit_j / orbit_i).  `Csr.from_entries`
        sums each position in entry order."""
        strings = [(modes[:len(modes) // 2], modes[len(modes) // 2:], table[modes])
                   for table in (one_body, two_body or {}) for modes in sorted(table)
                   if table[modes]]
        counts, blocks = {}, []
        for creations, annihilations, value in strings:
            columns, targets, amplitudes = ladder(self.occupations, creations, annihilations)
            if sorted(creations) == sorted(annihilations):
                counts.setdefault(value, np.zeros(self.dim))[columns] += amplitudes
            else:
                blocks.append((columns, targets, value * amplitudes))
        diagonal = sum((value * count for value, count in counts.items()), np.zeros(self.dim))
        (columns,) = np.nonzero(diagonal)
        blocks.insert(0, (columns, self.occupations[columns], diagonal[columns]))
        columns, targets, amplitudes = (np.concatenate(part) for part in zip(*blocks))
        rows, sizes = self.locate(targets), self.orbit_sizes
        values = amplitudes * np.sqrt(sizes[columns] / sizes[rows])
        return Csr.from_entries(rows, columns, values, self.dim)


def build_k0_sector(n_particles, n_sites) -> SymmetrySector:
    """Group the full Fock basis into translation orbits and assemble kappa=0.

    One rank pass over the basis with its sites shifted by one gives the
    shift as a permutation of ranks.  Its L powers give each state's orbit:
    the smallest rank, whose order is the sector's; the largest, the
    representative; and the size, L over the shifts that fix the state.  A
    full dimension above DIMENSION_CAP, or arrays beyond physical memory,
    raise ValueError before anything is listed.
    """
    full = full_dimension(n_particles, n_sites)
    if full > DIMENSION_CAP:
        raise ValueError(
            f"Fock dimension {full} for N={n_particles}, L={n_sites} exceeds the cap {DIMENSION_CAP}"
        )
    problem = memory_shortfall(f"the Fock basis of {full:,} states",
                               _sector_bytes(n_particles, n_sites))
    if problem:
        raise ValueError(problem)

    table = _rank_table(n_particles, 2 * n_sites)
    basis = _basis(n_particles, n_sites)
    sites = (np.arange(n_sites) - 1) % n_sites
    step = _ranks(basis, table, np.concatenate((sites, sites + n_sites)))  # rank -> rank shifted
    ranks = np.arange(full)
    first, last, fixed, rank = ranks.copy(), ranks.copy(), np.ones_like(ranks), ranks
    for _ in range(1, n_sites):
        rank = step[rank]
        np.minimum(first, rank, out=first)
        np.maximum(last, rank, out=last)
        fixed += rank == ranks
    leaders = first == ranks
    occupations = basis[last[leaders]]
    return SymmetrySector(
        n_particles=n_particles,
        n_sites=n_sites,
        occupations=occupations,
        orbit_sizes=n_sites // fixed[leaders],
        orbit=(np.cumsum(leaders) - 1)[first],
        rank_table=table,
        upper_fractions=occupations[:, n_sites:].sum(axis=1) / max(n_particles, 1),
    )


def _lower_band_ground(sector: SymmetrySector) -> np.ndarray:
    """Sector coordinates of the ground state of the untilted lower-band
    hopping (g = 0, upper band empty), the q = 0 condensate: sqrt(N! /
    prod_l n_l!) L^(-N/2) on each state, so sqrt(orbit size) times that on
    each orbit with an empty upper band, the root of an exact integer ratio."""
    n, L = sector.n_particles, sector.n_sites
    (empty,) = np.nonzero(sector.upper_fractions == 0)
    coords = np.zeros(sector.dim, dtype=complex)
    coords[empty] = [
        math.sqrt(math.factorial(n) // math.prod(map(math.factorial, row)) * int(size) / L**n)
        for row, size in zip(sector.occupations[empty, :L].tolist(), sector.orbit_sizes[empty])
    ]
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
        if len(state.lower) != sector.n_sites or len(state.upper) != sector.n_sites:
            raise ValueError(f"state {state} does not match L={sector.n_sites}")
        if sum(state.lower) + sum(state.upper) != sector.n_particles:
            raise ValueError(f"state {state} does not hold N={sector.n_particles} particles")
        if any(n < 0 for n in state.lower + state.upper):
            raise ValueError(f"negative occupation in {state}")

    coords = np.zeros(sector.dim, dtype=complex)
    coords[sector.locate([state.lower + state.upper])[0]] = 1.0
    return coords
