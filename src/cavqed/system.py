"""Qubit-cavity composite: antenna pickup, coupling rates, the dressed
spectrum of the low excitation sectors, and dispersive parameters.

Coupling chain for each (cavity mode k, qubit q, transition j -> j+1):

    V_RX  = (1/2) * l * (l_hat . E_k(r0))        (dipole receiving voltage)
    V_t   = C_ant / (C_ant + C_L) * V_RX         (capacitive divider)
    g_kj  = 2e * |<j|n|j+1>| * sqrt(omega_k / (2*eps0*hbar)) * V_t

with E_k the unit-normalized mode field.  All couplings are real (the -i
phase of the charge matrix elements is a removable gauge), so the
rotating-wave Hamiltonian

    H = sum_q sum_j E_qj |j><j|_q + sum_k omega_k a_k^dag a_k
        + sum_{k,q,j} g[k,q,j] (|j><j+1|_q a_k^dag + h.c.)

is a real symmetric matrix in the bare product basis; energies are angular
frequencies (rad/s).  Basis ordering is qubits first, then cavity modes, each
truncated to the same local dimension; labels are tuples
(q_0, ..., q_{nq-1}, c_0, ..., c_{nc-1}).

Every coupling term conserves the total excitation number N (sum of all
occupations), so H is block diagonal in N.  The dispersive energies live in
the sectors N <= 2, whose labels are the occupation tuples of total <= 2 with
every entry below the local dimension: 1 + S + S(S+1)/2 states for
S = qubits + modes once n_levels >= 3, whatever n_levels is.
:func:`sector_spectra` builds and diagonalizes only those blocks, for a whole
sweep at once: each sector's blocks of all its points form one stack and go
through one ``eigh`` call, and every point gets the values it would get alone
(:func:`sector_spectrum` is the one-point call).  Dressed states are labeled
by greedy maximum-overlap assignment and flagged when the winning overlap is
not above 1/2 (hybridization too strong for the label to mean anything).
:func:`dipole_center_fields` likewise samples the fields at many dipoles in
one :func:`eval_fields` call per mode, and :func:`transition_couplings` turns
a sweep's fields into its rates g[p, k, q, j] in one expression.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .cavity import CavityGeometry, CavityMode, eval_fields
from .constants import E_CHARGE, EPS0, HBAR
from .errors import FieldVariationWarning
from .transmon import DipoleSpec, TransmonSpectrum

#: Relative spread of the axial field over the dipole that triggers
#: :class:`FieldVariationWarning` for the point-sample receiving voltage.
FIELD_VARIATION_TOLERANCE = 0.05

#: A dressed label is flagged when its best overlap is <= FLAG_THRESHOLD +
#: FLAG_BOUNDARY_SLACK (the slack catches exact 50/50 hybridization despite
#: roundoff).
FLAG_THRESHOLD = 0.5
FLAG_BOUNDARY_SLACK = 1e-9

#: Largest N = 2 block :func:`sector_spectra` fills, and its square bounds the
#: entries of each stacked ``eigh`` call: 8,192 states make a 512 MiB float64
#: matrix, and ``eigh`` holds about five arrays of that size at once (its
#: input, its own copy, LAPACK's workspace of two, the eigenvectors).
MAX_SECTOR_STATES = 8192


@dataclass(frozen=True)
class QubitInstance:
    """A dipole-antenna transmon placed in the cavity: geometry, diagonalized
    spectrum, and the two capacitances of the input divider (farads)."""

    dipole: DipoleSpec
    spectrum: TransmonSpectrum
    c_ant: float
    c_load: float

    def __post_init__(self) -> None:
        if self.c_ant <= 0 or self.c_load <= 0:
            raise ValueError("c_ant and c_load must be positive")

    @property
    def divider(self) -> float:
        """Terminal-voltage fraction C_ant / (C_ant + C_L)."""
        return self.c_ant / (self.c_ant + self.c_load)


def validate_qubit_placement(qubit: QubitInstance, geom: CavityGeometry) -> None:
    """Raise ValueError unless both dipole tips lie inside the cavity box."""
    center = np.asarray(qubit.dipole.center)
    axis = np.asarray(qubit.dipole.orientation)
    for sign in (-1.0, 1.0):
        tip = center + sign * 0.5 * qubit.dipole.length * axis
        lims = (geom.a, geom.b, geom.d)
        if any(t < 0.0 or t > lim for t, lim in zip(tip, lims)):
            raise ValueError(f"dipole tip {tuple(tip)} lies outside the cavity")


@dataclass(frozen=True)
class SystemBasis:
    """Product basis of ``n_qubits`` + ``n_cavities`` subsystems, each truncated
    to ``n_levels`` local states, qubits first."""

    n_qubits: int
    n_cavities: int
    n_levels: int

    def __post_init__(self) -> None:
        if self.n_qubits < 0 or self.n_cavities < 0:
            raise ValueError("subsystem counts must be >= 0")
        if self.n_qubits + self.n_cavities == 0:
            raise ValueError("need at least one subsystem")
        if self.n_levels < 2:
            raise ValueError("n_levels must be >= 2")

    @property
    def n_sites(self) -> int:
        return self.n_qubits + self.n_cavities

    def index_of(self, label: Sequence[int]) -> int:
        label = tuple(int(x) for x in label)
        if len(label) != self.n_sites:
            raise ValueError(f"label must have {self.n_sites} entries")
        if any(x < 0 or x >= self.n_levels for x in label):
            raise ValueError(f"label {label} outside local dimension {self.n_levels}")
        return int(np.ravel_multi_index(label, (self.n_levels,) * self.n_sites))


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Real coupling rates g[k, q, j] (rad/s) for cavity k, qubit q,
    qubit transition j -> j+1."""

    g: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.g, dtype=float)
        if arr.ndim != 3:
            raise ValueError("g must have shape (n_cavities, n_qubits, n_levels-1)")
        object.__setattr__(self, "g", arr)


def dipole_center_fields(dipoles: Sequence[DipoleSpec], mode: CavityMode,
                         geom: CavityGeometry) -> np.ndarray:
    """Unit-normalized E vectors [dipole, xyz] of the mode at each dipole
    center, from one :func:`eval_fields` call over all the dipoles.

    Samples the axial field at five points along each wire and warns with
    :class:`FieldVariationWarning`, once per dipole, where it varies by more
    than 5% (the point-sample receiving voltage then misrepresents the
    triangular-current average).  :func:`eval_fields` is pointwise, so each
    dipole's field is bitwise the one it gets alone.
    """
    axes = np.array([d.orientation for d in dipoles], dtype=float).reshape(-1, 3)
    centers = np.array([d.center for d in dipoles], dtype=float).reshape(-1, 3)
    lengths = np.array([d.length for d in dipoles], dtype=float)
    fractions = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    points = (centers[:, None]
              + fractions[None, :, None] * axes[:, None] * lengths[:, None, None])
    e_field, _ = eval_fields(mode, geom, points)
    axial = (e_field * axes[:, None]).sum(axis=-1)
    center_val = axial[:, 2]
    spread = np.abs(axial - center_val[:, None]).max(axis=1)
    reference = np.maximum(np.abs(center_val), np.abs(axial).max(axis=1))
    for s, r in zip(spread.tolist(), reference.tolist()):
        if r > 0.0 and s > FIELD_VARIATION_TOLERANCE * r:
            warnings.warn(
                f"mode field varies by {s / r:.1%} along the dipole; "
                "point-sample receiving voltage is inaccurate "
                "(compare receiving_voltage_line_integral)", FieldVariationWarning,
                stacklevel=2)
    return e_field[:, 2]


def receiving_voltage_line_integral(dipole: DipoleSpec, mode: CavityMode,
                                    geom: CavityGeometry, n_samples: int = 201) -> float:
    """Triangular-current receiving voltage
    integral of (1 - 2|s|/l) * (l_hat . E) ds over s in [-l/2, l/2]
    (midpoint rule); reduces to the point-sample form for a uniform field.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    axis = np.asarray(dipole.orientation)
    center = np.asarray(dipole.center)
    half = 0.5 * dipole.length
    ds = dipole.length / n_samples
    s = -half + (np.arange(n_samples) + 0.5) * ds
    points = center + np.outer(s, axis)
    e_field, _ = eval_fields(mode, geom, points)
    axial = e_field @ axis
    weights = 1.0 - 2.0 * np.abs(s) / dipole.length
    return float(np.sum(weights * axial) * ds)


def transition_couplings(point_qubits: Sequence[Sequence[QubitInstance]], fields,
                         cavity_omegas: Sequence[float], n_levels: int) -> np.ndarray:
    """Coupling rates g[p, k, q, j] (rad/s) of transition j -> j+1 of qubit q
    of point p to mode k, j < n_levels-1, for a stack of P points:
    ((2e * |<j|n|j+1>|) * sqrt(omega_k/(2*eps0*hbar))) * (divider * V_RX)
    elementwise, so no point depends on the stack.  ``fields`` [p, k, q, xyz]
    holds the unit-normalized E vectors at the dipole centers (analytic or
    external).  ValueError when a spectrum lacks n_levels-1 charge elements."""
    m = n_levels - 1
    shape = (len(point_qubits), np.shape(fields)[2])  # [p, q]
    qubits = [qubit for qubits in point_qubits for qubit in qubits]
    for i, qubit in enumerate(qubits):
        if len(qubit.spectrum.charge_elements) < m:
            raise ValueError(f"qubit {i % shape[1]} spectrum has "
                             f"{len(qubit.spectrum.charge_elements)} charge elements; "
                             f"need {m}")
    element = np.abs([qubit.spectrum.charge_elements[:m] for qubit in qubits])
    divider = np.reshape([qubit.divider for qubit in qubits], shape)
    half_length = 0.5 * np.reshape([qubit.dipole.length for qubit in qubits], shape)
    axes = np.reshape([qubit.dipole.orientation for qubit in qubits], (*shape, 3))
    # l_hat . E: one matmul dot per (p, k, q), bitwise `E @ l_hat` of one vector
    dot = (np.asarray(fields, dtype=float)[..., None, :] @ axes[:, None, ..., None])[..., 0, 0]
    rate = np.sqrt(np.asarray(cavity_omegas, dtype=float) / (2.0 * EPS0 * HBAR))
    return (2.0 * E_CHARGE * element.reshape(*shape, m)[:, None] * rate[:, None, None]
            * (divider[:, None] * (half_length[:, None] * dot))[..., None])


def coupling_matrix(qubits: Sequence[QubitInstance], modes: Sequence[CavityMode],
                    geom: CavityGeometry, n_levels: int) -> CouplingMatrix:
    """All g[k, q, j] for j = 0..n_levels-2 of one set of qubits: the
    one-point :func:`transition_couplings`, with the fields of each mode at
    all the dipoles from one :func:`dipole_center_fields` call."""
    dipoles = [qubit.dipole for qubit in qubits]
    fields = [dipole_center_fields(dipoles, mode, geom) for mode in modes]
    return CouplingMatrix(g=transition_couplings(
        [qubits], np.reshape(fields, (1, len(modes), len(qubits), 3)),
        [mode.omega for mode in modes], n_levels)[0])


@dataclass(frozen=True, eq=False)
class DressedSpectrum:
    """Dressed states labeled by bare product states via greedy maximum
    overlap, as :func:`sector_spectrum` returns them.

    ``levels`` maps each solved label, in basis order, to its dressed energy
    (rad/s) and the squared overlap of its eigenvector with the bare state:
    the labels of the sectors N <= 2."""

    basis: SystemBasis
    levels: dict = field(repr=False)

    def _level(self, label: Sequence[int]) -> tuple[float, float]:
        try:
            return self.levels[label]
        except (KeyError, TypeError):  # a miss, or an unhashable list/array
            key = tuple(int(x) for x in label)
            if key in self.levels:
                return self.levels[key]
            self.basis.index_of(key)  # raises for a label outside the basis
            raise ValueError(
                f"label {key} has excitation number {sum(key)}; this spectrum "
                f"holds only the sectors N <= {max(map(sum, self.levels))}") from None

    def energy(self, label: Sequence[int]) -> float:
        """Dressed energy (rad/s) of the state labeled by ``label``."""
        return self._level(label)[0]

    def overlap(self, label: Sequence[int]) -> float:
        """Squared overlap of the labeled eigenvector with its bare state."""
        return self._level(label)[1]

    def is_flagged(self, label: Sequence[int]) -> bool:
        return self.overlap(label) <= FLAG_THRESHOLD + FLAG_BOUNDARY_SLACK

    def flagged(self) -> tuple[tuple[int, ...], ...]:
        """Labels whose identification is unreliable, in basis order."""
        return tuple(lbl for lbl in self.levels if self.is_flagged(lbl))


def _greedy_assign(overlap2: np.ndarray) -> np.ndarray:
    """Eigenvector index assigned to each bare state of ``overlap2``
    [..., bare index, eigen index] (squared overlaps of square blocks, with
    any number of leading stack axes).

    Visits all (bare state, eigenvector) pairs of a block in order of
    decreasing squared overlap (ties broken by bare-then-eigen index for
    determinism) and accepts a pair when both members are still unassigned,
    so every bare state gets exactly one eigenvector.

    A pair that is the only one above 1/2 in its row and in its column
    exceeds every other entry of both, so that visit accepts it whatever came
    before:
    all such pairs of the whole stack are assigned at once, and only the
    remaining rows and columns of the blocks that have any go through the
    loop.  Where every bare state keeps most of its weight in one
    eigenvector, nothing remains.
    """
    dim = overlap2.shape[-1]
    stack = overlap2.reshape(-1, dim, dim)
    above = stack > 0.5
    eig = above.argmax(axis=2)
    sure = ((above.sum(axis=2) == 1)
            & (above.sum(axis=1)[np.arange(len(stack))[:, None], eig] == 1))
    if sure.all():
        return eig.reshape(overlap2.shape[:-1])
    bare_assigned = np.where(sure, eig, -1)
    for block in np.flatnonzero(~sure.all(axis=1)).tolist():
        rows = np.flatnonzero(~sure[block])
        free = np.ones(dim, dtype=bool)
        free[eig[block, sure[block]]] = False
        cols = np.flatnonzero(free)
        # the submatrix keeps the (bare, eigen) order of its entries, so ties
        # break as they would in the whole matrix
        n_rest = rows.size
        order = np.argsort(-stack[block][np.ix_(rows, cols)], axis=None, kind="stable")
        row_taken = np.zeros(n_rest, dtype=bool)
        col_taken = np.zeros(n_rest, dtype=bool)
        remaining = n_rest
        for flat in order:
            r, c = divmod(int(flat), n_rest)
            if row_taken[r] or col_taken[c]:
                continue
            bare_assigned[block, rows[r]] = cols[c]
            row_taken[r] = col_taken[c] = True
            remaining -= 1
            if remaining == 0:
                break
    return bare_assigned.reshape(overlap2.shape[:-1])


class _Sector(NamedTuple):
    """One excitation-number block of a :class:`_SectorLayout`: the slots of
    its labels in basis order, and its coupling entries in block-local
    indices.  Entry i puts g[k[i], q[i], j[i]] * amplitude[i] at
    (src[i], dst[i]) and at (dst[i], src[i]); amplitude is sqrt(n_k + 1)."""

    rows: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    k: np.ndarray
    q: np.ndarray
    j: np.ndarray
    amplitude: np.ndarray


class _SectorLayout(NamedTuple):
    """The labels of total occupation <= 2 in basis order, their occupations
    [label, site], and the blocks N = 0, 1, 2."""

    labels: tuple[tuple[int, ...], ...]
    occ: np.ndarray
    sectors: tuple[_Sector, _Sector, _Sector]


def _n2_sector_size(n_sites: int, n_levels: int) -> int:
    """States of the N = 2 sector: one per pair of sites, plus one per site
    holding both excitations when the local dimension allows it."""
    return n_sites * (n_sites - 1) // 2 + (n_sites if n_levels >= 3 else 0)


@functools.lru_cache(maxsize=16)
def _sector_layout(n_qubits: int, n_cavities: int, n_levels: int) -> _SectorLayout:
    """Labels and coupling pattern of the sectors N <= 2, which depend only
    on the shape of the basis.  Every term g |j><j+1| a_k^dag conserves N, so
    each coupling entry lies inside one block.  The arrays are read-only:
    every caller with the same shape shares them."""
    n_sites = n_qubits + n_cavities
    eye = np.eye(n_sites, dtype=int)
    first, second = np.triu_indices(n_sites)
    occ = np.vstack([np.zeros_like(eye[:1]), eye, eye[first] + eye[second]])
    occ = occ[occ.max(axis=1) < n_levels]
    occ = occ[np.lexsort(occ.T[::-1])]  # basis order: lexicographic
    labels = tuple(map(tuple, occ.tolist()))
    position = {label: i for i, label in enumerate(labels)}
    # lower qubit q by one level, add one photon to mode k
    src, q, k = np.nonzero((occ[:, :n_qubits, None] >= 1)
                           & (occ[:, None, n_qubits:] + 1 < n_levels))
    targets = occ[src] - eye[q] + eye[n_qubits + k]
    dst = np.array([position[lbl] for lbl in map(tuple, targets.tolist())], dtype=int)
    j = occ[src, q] - 1
    amplitude = np.sqrt(occ[src, n_qubits + k] + 1.0)
    n_exc = occ.sum(axis=1)
    local = np.empty(len(occ), dtype=int)
    sectors = []
    for n in range(3):
        rows = np.flatnonzero(n_exc == n)
        local[rows] = np.arange(len(rows))
        inside = n_exc[src] == n
        sectors.append(_Sector(rows, local[src[inside]], local[dst[inside]], k[inside],
                               q[inside], j[inside], amplitude[inside]))
    for arr in (occ, *(a for sector in sectors for a in sector)):
        arr.setflags(write=False)
    return _SectorLayout(labels, occ, tuple(sectors))


def sector_spectra(levels, cavity_omegas: Sequence[float], couplings,
                   basis: SystemBasis) -> list[DressedSpectrum]:
    """Dressed spectra of the excitation-number sectors N <= 2, the sectors
    of every state :func:`dispersive_params` reads, for a stack of P points
    that share the basis and the cavity frequencies.

    ``levels`` [p, q, n] holds each point's transmon levels (rad/s, n below
    the basis' local dimension) and ``couplings`` [p, k, q, j] its coupling
    rates g[k, q, j].  Uses the terms of H (module docstring) on the labels
    of total occupation <= 2: the diagonal is the ground-referenced qubit
    levels plus sum_k omega_k n_k, and g[k,q,j] * sqrt(n_k + 1) couples
    (q = j+1, n_k) with (q = j, n_k + 1).  Each sector's blocks of all the
    points are filled as one (P, n, n) stack, diagonalized by one
    ``np.linalg.eigh`` call (the same LAPACK routine on every block; a block
    of one state is already diagonal) and
    labeled by :func:`_greedy_assign`, so an eigenvector never mixes sectors
    and a point's spectrum does not depend on the stack it is solved in.
    Points are solved in chunks whose blocks hold at most
    :data:`MAX_SECTOR_STATES` ** 2 entries per ``eigh`` call, and the spectra
    are returned in point order.  Inputs that do not match the basis, and a
    basis whose N = 2 block would exceed :data:`MAX_SECTOR_STATES`, raise
    ValueError before anything is allocated.
    """
    n_q, n_c, m = basis.n_qubits, basis.n_cavities, basis.n_levels
    levels = np.asarray(levels, dtype=float)
    g = np.asarray(couplings, dtype=float)
    if levels.ndim != 3 or levels.shape[1] != n_q or len(cavity_omegas) != n_c:
        raise ValueError("qubit/cavity counts must match the basis")
    if levels.shape[2] != m:
        raise ValueError(f"levels hold {levels.shape[2]} per qubit; basis needs {m}")
    if g.shape[1:] != (n_c, n_q, m - 1):
        raise ValueError(f"couplings shape {g.shape[1:]} does not match "
                         f"basis ({n_c}, {n_q}, {m - 1})")
    if len(g) != len(levels):
        raise ValueError(f"{len(levels)} points of levels but {len(g)} of couplings")
    size = _n2_sector_size(basis.n_sites, m)
    if size > MAX_SECTOR_STATES:
        raise ValueError(
            f"{n_c} cavity mode(s) and {n_q} qubit(s) make an N = 2 "
            f"block of {size} states ({size**2 * 8 / 2**20:.0f} MiB as float64); "
            f"the sector solver holds at most {MAX_SECTOR_STATES} states: "
            "use fewer cavity modes")
    layout = _sector_layout(n_q, n_c, m)
    occ = layout.occ
    largest = max(len(sector.rows) for sector in layout.sectors)
    per_chunk = max(1, MAX_SECTOR_STATES**2 // largest**2)
    spectra = []
    for start in range(0, len(levels), per_chunk):
        chunk = slice(start, start + per_chunk)
        n_points = len(levels[chunk])
        point = np.arange(n_points)[:, None]
        diag = np.zeros((n_points, len(occ)))
        for q in range(n_q):
            local = levels[chunk, q] - levels[chunk, q, :1]
            diag = diag + local[:, occ[:, q]]
        for k, omega_k in enumerate(cavity_omegas):
            diag = diag + omega_k * occ[:, n_q + k]
        energies = np.empty_like(diag)
        overlaps = np.empty_like(diag)
        for rows, src, dst, k, q, j, amplitude in layout.sectors:
            n = len(rows)
            if n <= 1:  # N = 0, or N = 2 of one two-level site: already diagonal
                energies[:, rows] = diag[:, rows]
                overlaps[:, rows] = 1.0
                continue
            blocks = np.zeros((n_points, n, n))
            blocks.reshape(n_points, n * n)[:, ::n + 1] = diag[:, rows]  # diagonals
            blocks[:, src, dst] = blocks[:, dst, src] = g[chunk, k, q, j] * amplitude
            values, vectors = np.linalg.eigh(blocks)
            overlap2 = np.square(vectors, out=vectors)
            assigned = _greedy_assign(overlap2)
            energies[:, rows] = values[point, assigned]
            overlaps[:, rows] = overlap2[point, np.arange(n), assigned]
        spectra.extend(DressedSpectrum(basis, dict(zip(layout.labels,
                                                       zip(e_row.tolist(), o_row.tolist()))))
                       for e_row, o_row in zip(energies, overlaps))
    return spectra


def sector_spectrum(spectra: Sequence[TransmonSpectrum],
                    cavity_omegas: Sequence[float],
                    couplings: CouplingMatrix,
                    basis: SystemBasis) -> DressedSpectrum:
    """Dressed spectrum of the sectors N <= 2 of one point: the one-point
    :func:`sector_spectra`.  Asking the result for a label of N > 2 raises
    ValueError, and so do inputs that do not match the basis."""
    m = basis.n_levels
    for q, spec in enumerate(spectra):
        if len(spec.levels) < m:
            raise ValueError(f"qubit {q} provides {len(spec.levels)} levels; "
                             f"basis needs {m}")
    levels = np.array([spec.levels[:m] for spec in spectra], dtype=float)
    return sector_spectra(levels.reshape(1, len(spectra), m), cavity_omegas,
                          couplings.g[None], basis)[0]


@dataclass(frozen=True)
class DispersiveResult:
    """Dressed qubit frequency, anharmonicity, cavity frequency, photon shift,
    and (optionally) qubit-qubit shift, all in rad/s; ``flags`` lists the
    bare labels whose dressed identification was unreliable, and
    ``min_label_overlap`` is the smallest best overlap over the labels used
    (a label is flagged when its overlap is at or below the threshold)."""

    omega01: float
    alpha: float | None
    omega_cavity: float
    chi: float
    zeta: float | None
    flags: tuple[tuple[int, ...], ...]
    min_label_overlap: float


@functools.lru_cache(maxsize=64)
def _readout_labels(basis: SystemBasis, qubit: int, cavity: int,
                    qubit_pair: tuple[int, int] | None) -> dict[str, tuple[int, ...]]:
    """The labels :func:`dispersive_params` reads, by name, in reading order:
    ground, q1, c1, q1c1, then q2 from three levels on, then a1, b1, ab for
    a qubit pair (a, b).  ValueError for an index outside the basis."""
    if not 0 <= qubit < basis.n_qubits:
        raise ValueError(f"qubit index {qubit} outside basis")
    if not 0 <= cavity < basis.n_cavities:
        raise ValueError(f"cavity index {cavity} outside basis")

    def label(*sites: int) -> tuple[int, ...]:
        """One excitation per listed site; qubits first, then modes."""
        return tuple(sites.count(site) for site in range(basis.n_sites))

    c = basis.n_qubits + cavity
    labels = {"ground": label(), "q1": label(qubit), "c1": label(c),
              "q1c1": label(qubit, c)}
    if basis.n_levels >= 3:
        labels["q2"] = label(qubit, qubit)
    if qubit_pair is not None:
        qa, qb = qubit_pair
        if qa == qb or not all(0 <= x < basis.n_qubits for x in (qa, qb)):
            raise ValueError(f"invalid qubit pair {qubit_pair}")
        labels.update(a1=label(qa), b1=label(qb), ab=label(qa, qb))
    return labels


def dispersive_params(dressed: DressedSpectrum, qubit: int = 0, cavity: int = 0,
                      qubit_pair: Sequence[int] | None = None) -> DispersiveResult:
    """Dispersive parameters from ground-referenced dressed energies:

        omega01 = E(q=1) - E(0)
        alpha   = E(q=2) - 2*E(q=1) + E(0)          (None when n_levels < 3)
        omega_c = E(c=1) - E(0)
        chi     = E(q=1,c=1) - E(q=1) - E(c=1) + E(0)
        zeta    = E(qa=1,qb=1) - E(qa=1) - E(qb=1) + E(0)   (when a pair is given)

    Values are returned whatever the labels' overlaps; the flagged labels are
    reported in ``flags`` and the smallest overlap in ``min_label_overlap``.
    """
    labels = _readout_labels(dressed.basis, qubit, cavity,
                             None if qubit_pair is None else tuple(qubit_pair))
    used = tuple(dict.fromkeys(labels.values()))
    e = {name: dressed.energy(lbl) for name, lbl in labels.items()}
    e0, e_q1 = e["ground"], e["q1"]
    alpha = e["q2"] - 2.0 * e_q1 + e0 if "q2" in e else None
    zeta = e["ab"] - e["a1"] - e["b1"] + e0 if "ab" in e else None
    return DispersiveResult(omega01=e_q1 - e0, alpha=alpha, omega_cavity=e["c1"] - e0,
                            chi=e["q1c1"] - e_q1 - e["c1"] + e0, zeta=zeta,
                            flags=tuple(lbl for lbl in used if dressed.is_flagged(lbl)),
                            min_label_overlap=min(map(dressed.overlap, used)))
