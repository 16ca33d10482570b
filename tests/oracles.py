"""Independent reference formulas and circuit builders used by the tests.

Everything here is written from the closed-form expressions directly, on
purpose in a different style than the package, so the two routes can be
compared without sharing code paths.
"""

import csv
import math

import numpy as np

from rxfront.arrays import COND_WARN
from rxfront.cli import fmt
from rxfront.core import (
    CSV_HEADER,
    OPEN_CIRCUIT,
    FrequencyGrid,
    ImpedanceMatrixSeries,
    NumericalError,
    ParseError,
    SingularCircuitError,
    ValidationError,
    ValidationReport,
    as_complex,
    johnson_density,
)

K_BOLTZ = 1.380649e-23


def golden_section_min(fun, lo, hi, iters=90):
    """Minimize a unimodal scalar function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


# The single-link divider, power and SNR written straight from the one-load
# formulas, in Python floats and complex numbers, with no shared helper.


def divided_voltage_scalar(source, z_in):
    if z_in is OPEN_CIRCUIT:
        return source.v_oc
    z = as_complex(z_in, "z_in")
    den = source.z_series + z
    if den == 0:
        raise SingularCircuitError("z_series + z_in = 0: divider is singular")
    return source.v_oc * z / den


def extracted_power_scalar(source, z_in):
    if z_in is OPEN_CIRCUIT:
        return 0.0
    z = as_complex(z_in, "z_in")
    if z.real < 0:
        raise ValidationError("z_in must have nonnegative real part")
    den = source.z_series + z
    if den == 0:
        raise SingularCircuitError("z_series + z_in = 0: divider is singular")
    v2 = source.v_oc.real**2 + source.v_oc.imag**2
    return v2 * z.real / (2.0 * (den.real**2 + den.imag**2))


def output_snr_scalar(link, amp, z_l):
    g2 = amp.gain * amp.gain
    s_voc = (link.z_rt.real**2 + link.z_rt.imag**2) * link.s_it
    if z_l is OPEN_CIRCUIT:
        if amp.n_na == 0:
            return math.inf
        return g2 * s_voc / amp.n_na
    z = as_complex(z_l, "z_l")
    if z.real < 0:
        raise ValidationError("z_l must have nonnegative real part")
    den = link.z_r + z
    if den == 0:
        raise SingularCircuitError("z_r + z_l = 0: divider is singular")
    d2 = den.real**2 + den.imag**2
    w2 = (z.real**2 + z.imag**2) / d2
    u2 = (link.z_r.real**2 + link.z_r.imag**2) / d2
    noise = amp.n_na + g2 * u2 * johnson_density(amp.temperature, z.real)
    if noise == 0:
        return math.inf
    return g2 * w2 * s_voc / noise


def _fmt_c(z):
    return f"{z.real!r} {z.imag!r}"


def buffer_netlist(v_oc, z_s, a, z_id, z_cm, r_out):
    """Netlist for the follower: source into node 2, output fed back at node 3.

    Node 2 is the non-inverting input, node 3 the output (tied to the
    inverting input). Returns text for the nodal solver; i_source is minus
    the battery branch current.
    """
    v_oc = complex(v_oc)
    z_s = complex(z_s)
    lines = [f"V1 1 0 {_fmt_c(v_oc)}", f"Zs 1 2 {_fmt_c(z_s)}"]
    if z_id is not None:
        lines.append(f"Zid 2 3 {_fmt_c(complex(z_id))}")
    if z_cm is not None:
        lines.append(f"Zcp 2 0 {_fmt_c(complex(z_cm))}")
        lines.append(f"Zcn 3 0 {_fmt_c(complex(z_cm))}")
    if r_out > 0:
        lines.append(f"E1 4 0 2 3 {a!r}")
        lines.append(f"Zo 4 3 {r_out!r} 0.0")
    else:
        lines.append(f"E1 3 0 2 3 {a!r}")
    return "\n".join(lines)


def constant_current_netlist(v_oc, z_s, a, z_id, z_cm, r_out, v_c, r_c):
    """Netlist for the feedback stage: antenna between output and the
    inverting input, non-inverting input grounded.

    Returns (text, n_node, o_node); i_source is minus the antenna battery
    branch current.
    """
    v_oc = complex(v_oc)
    z_s = complex(z_s)
    v_c = complex(v_c)
    lines = []
    n_node, o_node = 1, 2
    next_node = 3
    if not math.isinf(r_c):
        bias = next_node
        next_node += 1
        lines.append(f"Vc {bias} 0 {_fmt_c(v_c)}")
        lines.append(f"Zc {bias} {n_node} {r_c!r} 0.0")
    if z_id is not None:
        lines.append(f"Zid {n_node} 0 {_fmt_c(complex(z_id))}")
    if z_cm is not None:
        lines.append(f"Zcm {n_node} 0 {_fmt_c(complex(z_cm))}")
    emf_plus = next_node
    next_node += 1
    lines.append(f"Vs {emf_plus} {n_node} {_fmt_c(v_oc)}")
    lines.append(f"Zs {emf_plus} {o_node} {_fmt_c(z_s)}")
    if r_out > 0:
        amp_out = next_node
        next_node += 1
        lines.append(f"E1 {amp_out} 0 0 {n_node} {a!r}")
        lines.append(f"Zo {amp_out} {o_node} {r_out!r} 0.0")
    else:
        lines.append(f"E1 {o_node} 0 0 {n_node} {a!r}")
    return "\n".join(lines), n_node, o_node


def snr_grid_ref(re_vals, im_vals, zr_re, zr_im, s_voc, gg, n_na, two_kt):
    """Grid SNR one load at a time; singular points -inf, noiseless +inf."""
    out = np.empty((re_vals.size, im_vals.size))
    for i in range(re_vals.size):
        for j in range(im_vals.size):
            dr = zr_re + re_vals[i]
            di = zr_im + im_vals[j]
            d2 = dr * dr + di * di
            if d2 == 0.0:
                out[i, j] = -np.inf
                continue
            w2 = (re_vals[i] * re_vals[i] + im_vals[j] * im_vals[j]) / d2
            u2 = (zr_re * zr_re + zr_im * zr_im) / d2
            noise = n_na + gg * u2 * two_kt * re_vals[i]
            signal = gg * w2 * s_voc
            out[i, j] = signal / noise if noise > 0.0 else np.inf
    return out


def sum_power_batch_ref(z_r, z_loads, v_oc):
    """Sum extracted power 0.5 Re(I^H Z_L I) for each load in a stack, one
    solve and one scalar accumulation per load."""
    out = np.empty(z_loads.shape[0])
    for p in range(z_loads.shape[0]):
        currents = np.linalg.solve(z_r + z_loads[p], v_oc)
        through = z_loads[p] @ currents
        acc = 0.0
        for k in range(currents.size):
            acc += (np.conj(currents[k]) * through[k]).real
        out[p] = 0.5 * acc
    return out


def full_conjugate_closed_form_ref(z_r, v_oc):
    """Voltages under the full conjugate load conj(Z_R): the loop matrix
    Z_R + conj(Z_R) is 2 Re Z_R, so V = conj(Z_R) (2 Re Z_R)^-1 v_oc."""
    currents = np.linalg.solve(2.0 * np.real(z_r), np.asarray(v_oc, dtype=complex))
    return np.conj(z_r) @ currents


def load_matrix_ref(kind, z_r, z_l=None):
    """Per-frequency load matrix for a termination kind (not open circuit)."""
    if kind == "per_antenna_conjugate":
        return np.diag(np.conj(np.diag(z_r)))
    if kind == "full_conjugate":
        return np.conj(z_r)
    return np.asarray(z_l, dtype=np.complex128)


def _terminations_ref(z_r, v_oc, kind, z_l=None):
    """Loop over frequencies, one inverse of Z_R + Z_L each: yields the
    currents (Z_R + Z_L)^-1 V_oc, the voltages Z_L I and the divider
    Z_L (Z_R + Z_L)^-1 as a list of parts whose squares sum to its own.

    The full conjugate inverts Z_R + conj(Z_R) = 2 Re Z_R in real numbers,
    takes the currents from one real product with the two columns Re V_oc
    and Im V_oc, and gives the divider as Re Z_R and Im Z_R times that
    inverse; the per-antenna match scales the inverse's rows by its load."""
    for fi in range(len(z_r)):
        load = load_matrix_ref(kind, z_r[fi], z_l)
        if kind == "full_conjugate":
            inverse = np.linalg.inv(2.0 * z_r[fi].real)
            columns = inverse @ np.stack([v_oc[fi].real, v_oc[fi].imag], axis=1)
            currents = np.empty(len(columns), dtype=complex)
            currents.real, currents.imag = columns[:, 0], columns[:, 1]
            yield currents, load @ currents, [z_r[fi].real @ inverse, z_r[fi].imag @ inverse]
            continue
        inverse = np.linalg.inv(z_r[fi] + load)
        currents = inverse @ v_oc[fi]
        if kind == "per_antenna_conjugate":
            diagonal = np.diag(load)
            yield currents, diagonal * currents, [diagonal[:, None] * inverse]
        else:
            yield currents, load @ currents, [load @ inverse]


def terminated_voltages_ref(z_r, v_oc, kind, z_l=None):
    """Loop over frequencies: V = Z_L (Z_R + Z_L)^-1 V_oc from one inverse each."""
    return np.array([voltages for _, voltages, _ in _terminations_ref(z_r, v_oc, kind, z_l)])


def sum_extracted_power_ref(z_r, v_oc, kind, z_l=None):
    """Loop over frequencies: 0.5 Re(I^H Z_L I)."""
    return np.array([0.5 * float(np.real(np.conj(currents) @ voltages))
                     for currents, voltages, _ in _terminations_ref(z_r, v_oc, kind, z_l)])


def _norm_ref(parts):
    # sqrt of the sum of the parts' squares, each complex part's real and
    # imaginary parts taken as np.linalg.norm takes them
    squares = []
    for part in parts:
        flat = part.ravel()
        squares += [flat.real @ flat.real, flat.imag @ flat.imag] if np.iscomplexobj(flat) else [flat @ flat]
    return math.sqrt(sum(squares))


def coupling_offdiag_ratio_ref(z_r, kind, z_l=None):
    """Loop over frequencies: off-diagonal over diagonal Frobenius norm of
    the divider Z_L (Z_R + Z_L)^-1."""
    out = np.empty(len(z_r))
    v_oc = np.zeros(z_r.shape[:2], dtype=complex)
    for fi, (_, _, parts) in enumerate(_terminations_ref(z_r, v_oc, kind, z_l)):
        diag_norm = _norm_ref([np.diag(part) for part in parts])
        off_norm = _norm_ref([part - np.diag(np.diag(part)) for part in parts])
        out[fi] = math.inf if diag_norm == 0 else off_norm / diag_norm
    return out


def termination_by_solve_ref(z_r, v_oc, kind, z_l=None):
    """The termination as two complex factorizations per frequency compute
    it: the currents from a solve and the divider from an inverse of
    Z_R + Z_L. Returns the currents, voltages, powers and off-diagonal
    ratios, one per frequency."""
    rows = []
    for fi in range(len(z_r)):
        load = load_matrix_ref(kind, z_r[fi], z_l)
        currents = np.linalg.solve(z_r[fi] + load, v_oc[fi])
        voltages = load @ currents
        divider = load @ np.linalg.inv(z_r[fi] + load)
        diag = np.diag(np.diag(divider))
        diag_norm = np.linalg.norm(diag)
        ratio = math.inf if diag_norm == 0 else np.linalg.norm(divider - diag) / diag_norm
        rows.append((currents, voltages, 0.5 * float(np.real(np.conj(currents) @ voltages)), ratio))
    currents, voltages, power, ratio = zip(*rows)
    return np.array(currents), np.array(voltages), np.array(power), np.array(ratio)


def cond_check_ref(total, v_oc):
    """Warnings and error of a termination whose Z_R + Z_L stack is total,
    from an SVD of every frequency before the solve: the list of warning
    texts and the SingularCircuitError text, or None when it solves."""
    cond = np.linalg.cond(total)
    messages = []
    for index in np.flatnonzero(~(cond <= COND_WARN)):
        if not math.isfinite(cond[index]):
            return messages, f"singular termination at frequency index {index}"
        messages.append(f"ill-conditioned termination at frequency index {index}: cond={cond[index]:.3e}")
    try:
        np.linalg.solve(total, v_oc[..., None])
        np.linalg.inv(total)
    except np.linalg.LinAlgError:
        return messages, f"singular termination at frequency index {int(np.argmax(cond))}"
    return messages, None


def coupling_draw_ref(selfs, coupling, decay, rng, max_tries):
    """The synthetic array model's passive draw as it was made before it was
    vectorized: one phase, one cos/sin pair and two stores per pair i < j.
    The loop wrote mag * complex(cos, sin); complex(mag, 0.0) is how Python
    multiplied a float by a complex up to 3.13 (3.14 drops the 0.0 terms,
    which changes the signed zeros of a zero-magnitude entry)."""
    n = len(selfs)
    for _ in range(max_tries):
        mat = np.diag(selfs).astype(np.complex128)
        for i in range(n):
            for j in range(i + 1, n):
                mag = coupling * decay ** (j - i - 1)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                entry = complex(mag, 0.0) * complex(math.cos(phase), math.sin(phase))
                mat[i, j] = entry
                mat[j, i] = entry
        eigs = np.linalg.eigvalsh((mat.real + mat.real.T) / 2.0)
        if eigs[0] >= 0:
            return mat
    raise NumericalError(f"no passive coupling draw in {max_tries} tries")


# The impedance-CSV loader and the two validators as they were before the
# stacked versions: one Python pass per line, one dict per frequency, one
# matrix at a time.


def _csv_row_ref(lineno, row):
    if len(row) != 5:
        raise ParseError(f"line {lineno}: expected 5 columns, got {len(row)}")
    try:
        freq = float(row[0])
        r = int(row[1])
        c = int(row[2])
        value = complex(float(row[3]), float(row[4]))
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    if not math.isfinite(freq) or freq <= 0:
        raise ParseError(f"line {lineno}: freq_hz must be finite and positive")
    if r < 0 or c < 0:
        raise ParseError(f"line {lineno}: row/col indices must be nonnegative")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"line {lineno}: impedance entries must be finite")
    return freq, r, c, value


def _mirror_ref(a, b, freq, r, c, tol, path):
    if abs(a - b) > tol * max(abs(a), abs(b)):
        raise ParseError(f"{path}: conflicting entries for ({r},{c})/({c},{r}) at freq {freq:g}")


def undecodable_ref(path):
    """ParseError naming the 1-based line of the first byte of the file that
    does not decode, from one decode of all its bytes."""
    with open(path, newline="") as handle:
        encoding, data = handle.encoding, handle.buffer.read()
    try:
        data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = 1 + data[:exc.start].count(b"\n")
        return ParseError(f"{path}: line {line}: byte {data[exc.start]:#04x} is not valid {exc.encoding}")
    raise AssertionError(f"{path} decodes")


def load_impedance_csv_ref(path, dims=None, mirror_tol=1e-12):
    """Sparse impedance CSV to an ImpedanceMatrixSeries, line by line."""
    try:
        entries = _csv_entries_ref(path, mirror_tol)
    except UnicodeDecodeError:
        raise undecodable_ref(path) from None
    if not entries:
        raise ParseError(f"{path}: no data rows")
    freqs = sorted(entries)
    n = 1 + max(max(max(r, c) for r, c in cell) for cell in entries.values())
    mats = np.zeros((len(freqs), n, n), dtype=np.complex128)
    for fi, freq in enumerate(freqs):
        for (r, c), value in entries[freq].items():
            mats[fi, r, c] = value
        for (r, c), value in entries[freq].items():
            if r == c:
                continue
            if (c, r) in entries[freq]:
                _mirror_ref(entries[freq][(c, r)], value, freq, r, c, mirror_tol, path)
            else:
                mats[fi, c, r] = value
    return ImpedanceMatrixSeries(FrequencyGrid(tuple(freqs)), mats, dims)


def _csv_entries_ref(path, mirror_tol):
    """freq -> {(row, col): value} of the listed cells, line by line."""
    entries = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if tuple(col.strip().lower() for col in header) != CSV_HEADER:
            raise ParseError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            freq, r, c, value = _csv_row_ref(lineno, row)
            cell = entries.setdefault(freq, {})
            if (r, c) in cell:
                _mirror_ref(cell[(r, c)], value, freq, r, c, mirror_tol, path)
            cell[(r, c)] = value
    return entries


def validate_reciprocity_ref(zms, tol=1e-9):
    deviations = []
    for mat in zms.matrices:
        scale = float(np.max(np.abs(mat)))
        if scale == 0.0:
            deviations.append(0.0)
            continue
        deviations.append(float(np.max(np.abs(mat - mat.T))) / scale)
    worst = int(np.argmax(deviations))
    return ValidationReport("reciprocity", deviations[worst] <= tol, tol, tuple(deviations), worst)


def validate_passivity_ref(zms, tol=1e-9):
    deviations = []
    for index, mat in enumerate(zms.matrices):
        sym = (mat.real + mat.real.T) / 2.0
        try:
            eigs = np.linalg.eigvalsh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigenvalue solve failed at frequency index {index}") from exc
        scale = float(np.max(np.abs(eigs)))
        if scale == 0.0:
            deviations.append(0.0)
            continue
        deviations.append(max(0.0, -float(eigs[0])) / scale)
    worst = int(np.argmax(deviations))
    return ValidationReport("passivity", deviations[worst] <= tol, tol, tuple(deviations), worst)


# The report renderer as it was before reports had one %-template per
# report: cell by cell, a float array in one .12g pass with its zeros and
# NaNs patched through fmt, each CSV row joined with "," and the text
# report written line by line.


def cells_ref(column) -> list:
    if isinstance(column, list):  # a port column's row lists print joined with ";"
        return [";".join(map(fmt, value)) if isinstance(value, list) else fmt(value) for value in column]
    values = column.tolist()
    cells = [format(value, ".12g") for value in values]
    for i in np.flatnonzero((column == 0.0) | (column != column)).tolist():
        cells[i] = fmt(values[i])
    return cells


def _csv_cell_ref(cell: str) -> str:
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_report_ref(columns, fmt_kind, title):
    """Report text of ``columns`` as rxfront.cli.render_report writes it."""
    names = list(columns)
    cells = [cells_ref(columns[name]) for name in names]
    if fmt_kind == "csv":
        cells = [[_csv_cell_ref(c) for c in column] if isinstance(columns[name], list) else column
                 for name, column in zip(names, cells)]
        return "\n".join(",".join(row) for row in [names, *zip(*cells)]) + "\n"
    lines = [f"report: {title}"]
    for index, row in enumerate(zip(*cells), start=1):
        lines.append(f"row {index}:")
        lines.extend(f"  {name}: {cell}" for name, cell in zip(names, row))
    return "\n".join(lines) + "\n"


# The MNA solve as it was before ground became row and column 0 of the
# stamped matrix: the stamping verbatim, with ground eliminated through
# stamp_node, then np.linalg.solve and the residual test on the result.


def mna_system_ref(netlist):
    """(matrix, rhs, n, branches) of the netlist, ground eliminated."""
    n = netlist.n_nodes
    branches = [el for el in netlist.elements if el.kind in ("V", "E")]
    size = n + len(branches)
    matrix = np.zeros((size, size), dtype=np.complex128)
    rhs = np.zeros(size, dtype=np.complex128)

    def stamp_node(row_col: int):
        # Ground row/column is eliminated; node k maps to index k - 1.
        return row_col - 1 if row_col > 0 else None

    for el in netlist.elements:
        a = stamp_node(el.pos)
        b = stamp_node(el.neg)
        if el.kind == "Z":
            y = 1.0 / el.value
            if a is not None:
                matrix[a, a] += y
            if b is not None:
                matrix[b, b] += y
            if a is not None and b is not None:
                matrix[a, b] -= y
                matrix[b, a] -= y
        elif el.kind == "I":
            if a is not None:
                rhs[a] -= el.value
            if b is not None:
                rhs[b] += el.value

    for k, el in enumerate(branches):
        row = n + k
        a = stamp_node(el.pos)
        b = stamp_node(el.neg)
        if a is not None:
            matrix[a, row] += 1.0
            matrix[row, a] += 1.0
        if b is not None:
            matrix[b, row] -= 1.0
            matrix[row, b] -= 1.0
        if el.kind == "V":
            rhs[row] = el.value
        else:
            c = stamp_node(el.ctrl_pos)
            d = stamp_node(el.ctrl_neg)
            if c is not None:
                matrix[row, c] -= el.value
            if d is not None:
                matrix[row, d] += el.value
    return matrix, rhs, n, branches


def mna_solve_ref(netlist):
    """(node voltages, branch currents) of the netlist, or the error message
    the solve raised, "singular: ..." or "numerical: ..."."""
    matrix, rhs, n, branches = mna_system_ref(netlist)
    try:
        solution = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        node = next((i + 1 for i in range(n) if not np.any(matrix[i]) or not np.any(matrix[:, i])), 0)
        hint = f"; node {node} appears isolated" if node else ""
        return f"singular: circuit matrix is singular{hint}"
    # the infinity norms of np.linalg.norm, written so that an empty system
    # (a ground-only netlist) gives 0 on numpy releases whose norm raises there
    residual = abs(matrix @ solution - rhs).max(initial=0.0)
    scale = (
        abs(matrix).sum(axis=1).max(initial=0.0) * abs(solution).max(initial=0.0)
        + abs(rhs).max(initial=0.0)
    )
    if scale > 0 and residual / scale > 1e-10:
        return f"numerical: solution residual {residual / scale:.3e} exceeds 1e-10"
    voltages = {0: 0j, **{node: complex(solution[node - 1]) for node in range(1, n + 1)}}
    return voltages, {el.name: complex(solution[n + k]) for k, el in enumerate(branches)}
