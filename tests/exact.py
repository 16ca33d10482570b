"""Exact references for the closed-form reports: ``capacity``, ``link``,
``match`` and ``noisefig``.

Each cell is computed from ``Fraction(x)`` of the parsed scenario's floats,
so rational steps are exact. Square roots, natural logs and powers of ten
are taken in 50-digit ``decimal``, whose ``sqrt`` and ``ln`` are correctly
rounded. Boltzmann's constant and ln 2 are their exact values,
not the package's floats. A cell that the formulas define as a flag (an SNR
without noise, an open circuit's load) is ``INF``; a text cell is its str.

``printed(exact)`` is the set of 12-significant-digit cells accepted for an
exact value: its correctly rounded float as ``%.12g`` prints it, and either
neighbour where the value lies within about 1e-15 relative of a rounding
boundary (the decimal one, or a float one among subnormals).

These functions take the points that are not closed forms from the caller:
the load that ``optimize_load`` chose, and the turns ratios that ``match``
swept, as the floats the program used. ``report_columns`` asks the program
for those points and gives a whole report's exact columns.
"""

import csv
import io
import math
from decimal import Context, Decimal
from fractions import Fraction

CTX = Context(prec=50)
INF = Decimal("Infinity")
BOLTZMANN = Fraction("1.380649e-23")  # exact SI value, J/K
LN2 = CTX.ln(Decimal(2))
LN10 = CTX.ln(Decimal(10))
EPS = Decimal("1e-15")


def dec(x) -> Decimal:
    """A Fraction (or int) to 50 digits."""
    x = Fraction(x)
    return CTX.divide(Decimal(x.numerator), Decimal(x.denominator))


def sqrt(x: Fraction) -> Decimal:
    return CTX.sqrt(dec(x))


def ln1p(q: Fraction) -> Decimal:
    """ln(1 + q) for q >= 0, to 50 digits also where q is far below 1e-50."""
    if q < Fraction(1, 10**10):  # six terms of the series: the next is below q * 1e-60
        return dec(sum((-1) ** (k + 1) * q**k / k for k in range(1, 7)))
    return CTX.ln(dec(1 + q))


def fmt12(x: float) -> str:
    return "0" if x == 0 else "inf" if x == math.inf else "-inf" if x == -math.inf else f"{x:.12g}"


def printed(exact) -> set:
    """The report cells accepted for an exact value (see the module doc)."""
    if isinstance(exact, str):
        return {exact}
    if exact.is_infinite():
        return {"inf"}
    return {fmt12(float(CTX.multiply(exact, factor))) for factor in (1 - EPS, Decimal(1), 1 + EPS)}


def inexact_cells(columns: dict, report: str) -> dict:
    """The cells of a CSV report that ``printed`` does not accept for their
    exact values (``columns``: name -> one exact value a row), each
    "<column> row N" with its cell and the exact value to 20 digits. A note
    "key=value" is checked by its value."""
    rows = list(csv.DictReader(io.StringIO(report)))
    wrong = {}
    for column, values in columns.items():
        assert len(values) == len(rows), column
        for i, (row, value) in enumerate(zip(rows, values), 1):
            cell = row[column].rpartition("=")[2]
            if cell not in printed(value):
                wrong[f"{column} row {i}"] = f"{cell}, exact {value if isinstance(value, str) else f'{value:.20g}'}"
    return wrong


def _cx(part: dict) -> tuple:
    return Fraction(part["re"]), Fraction(part["im"])


def _amplifier(amp: dict) -> tuple:
    """g^2, n_na and 2kT of an ``amplifier`` section."""
    return Fraction(amp["gain"]) ** 2, Fraction(amp["n_na_v2_per_hz"]), 2 * BOLTZMANN * Fraction(amp["temp_kelvin"])


def _quotient(num: Fraction, den: Fraction):
    """num / den, INF where den is 0: the SNR of a run without noise."""
    return INF if den == 0 else dec(num / den)


def capacity_columns(data: dict) -> dict:
    """bandwidth, capacity_bits, capacity_bound_bits and eb_n0 of each
    bandwidth: B ln(1 + q)/ln 2, P/(N0 ln 2) and q ln 2/ln(1 + q), with
    q = P/(B N0); Eb/N0 is undefined at zero power."""
    sec = data["capacity"]
    power, n0 = Fraction(sec["power"]), Fraction(sec["noise_density"])
    bound = CTX.divide(dec(power / n0), LN2)
    cols = {"bandwidth": [], "capacity_bits": [], "capacity_bound_bits": [], "eb_n0": []}
    for b in map(Fraction, sec["bandwidths"]):
        q = power / (b * n0)
        log = ln1p(q)
        cols["bandwidth"].append(dec(b))
        cols["capacity_bits"].append(CTX.divide(CTX.multiply(dec(b), log), LN2) if power else Decimal(0))
        cols["capacity_bound_bits"].append(bound)
        cols["eb_n0"].append(CTX.divide(CTX.multiply(dec(q), LN2), log) if power else "undefined")
    return cols


def link_columns(data: dict, optimal) -> dict:
    """The ``link`` report but its labels. An explicit or matched load z_l
    has |z_l/(z_r + z_l)|, s_voc Re z_l/(2|z_r + z_l|^2) and the SNR
    g^2 |w|^2 s_voc / (n_na + g^2 2kT Re z_l |u|^2), w = z_l/(z_r + z_l),
    u = z_r/(z_r + z_l), s_voc = |z_rt|^2 s_it. An open circuit has the load
    inf, divider 1, power 0, the SNR g^2 s_voc/n_na and, where Re z_r > 0
    and n_na > 0, the note oc_over_match = 4 (Re z_r)^2/|z_r|^2 +
    g^2 2kT Re z_r / n_na. ``optimal`` is the load optimize_load chose, as
    a complex, or None for the open circuit."""
    sec = data["link"]
    (rr, xr), (rt, xt) = _cx(sec["z_r_ohms"]), _cx(sec["z_rt_ohms"])
    g2, n_na, two_kt = _amplifier(data["amplifier"])
    s_voc = (rt * rt + xt * xt) * Fraction(sec["s_it_a2_per_hz"])
    abs2_r = rr * rr + xr * xr

    def open_row() -> list:
        note = ""
        if rr > 0 and n_na > 0:
            note = dec(4 * rr * rr / abs2_r + g2 * two_kt * rr / n_na)
        return [INF, INF, Decimal(1), Decimal(0), _quotient(g2 * s_voc, n_na), note]

    def load_row(re: Fraction, im: Fraction) -> list:
        d2 = (rr + re) ** 2 + (xr + im) ** 2
        w2 = (re * re + im * im) / d2
        noise = n_na + g2 * two_kt * re * abs2_r / d2
        return [dec(re), dec(im), sqrt(w2), dec(s_voc * re / (2 * d2)), _quotient(g2 * w2 * s_voc, noise), ""]

    rows = []
    for load in sec["loads"]:
        if load["kind"] == "open_circuit":
            rows.append(open_row())
        elif load["kind"] == "conjugate_match":
            rows.append(load_row(rr, -xr))
        else:
            rows.append(load_row(*_cx(load["z_l_ohms"])))
    if "optimize" in sec:
        rows.append(open_row() if optimal is None else load_row(Fraction(optimal.real), Fraction(optimal.imag)))
    names = ("z_l_re_ohms", "z_l_im_ohms", "divider_mag", "extracted_power_w_per_hz", "snr", "annotations")
    return dict(zip(names, map(list, zip(*rows)))) if rows else {}


def match_columns(data: dict, exponents: list, ratios: list) -> dict:
    """turns_ratio and snr of a ``match`` sweep. The ratio is
    sqrt(r_in/Re z_r) 10^e for each swept exponent e. The SNR is taken at
    the float ratio n the program swept: the source n^2 z_s (z_s = Re z_r
    with cancel_reactance, else z_r) with signal n^2 s_voc drives r_in, and
    only its resistance is a noise source: g^2 |w|^2 n^2 s_voc /
    (n_na + g^2 2kT n^2 Re z_s |w|^2), w = r_in/(n^2 z_s + r_in)."""
    sec = data["match"]
    (rr, xr), (rt, xt) = _cx(sec["link"]["z_r_ohms"]), _cx(sec["link"]["z_rt_ohms"])
    r_in = Fraction(sec["amp_input_resistance_ohms"])
    xs = 0 if sec["cancel_reactance"] else xr
    g2, n_na, two_kt = _amplifier(data["amplifier"])
    s_voc = (rt * rt + xt * xt) * Fraction(sec["link"]["s_it_a2_per_hz"])
    best = sqrt(r_in / rr)
    cols = {"turns_ratio": [], "snr": [], "annotations": []}
    for e, n in zip(exponents, ratios):
        n2 = Fraction(n) ** 2
        w2 = r_in * r_in / ((n2 * rr + r_in) ** 2 + (n2 * xs) ** 2)
        cols["turns_ratio"].append(CTX.multiply(best, CTX.power(Decimal(10), dec(e))))
        cols["snr"].append(_quotient(g2 * w2 * n2 * s_voc, n_na + g2 * two_kt * n2 * rr * w2))
        cols["annotations"].append("at_optimal" if e == 0 else "")
    return cols


def noisefig_columns(data: dict) -> dict:
    """The ``noisefig`` report. With w = r_l/(r_s + r_l) (1 for an infinite
    r_l) and r_par = r_s w: the Friis gain g^2 r_s w^2 / r_out, the output
    SNR g^2 |v_s|^2 w^2 / (n_na + g^2 2kT r_par), and the noise factor, the
    input SNR |v_s|^2/(2kT r_s) over the output SNR, with its figure
    10 log10 F, taken as 10 ln(1 + (F - 1)) / ln 10 from the exact F - 1, so
    that an F within 1e-50 of 1 keeps its figure's digits. A noiseless
    source (r_s = 0) has F = inf, or 1 without amplifier noise: the flags of
    the noiseless-source limit."""
    sec = data["noisefig"]
    v_re, v_im = _cx(sec["v_s_volts"])
    r_s, r_out = Fraction(sec["r_s_ohms"]), Fraction(sec["amp"]["r_out_ohms"])
    g2, n_na = Fraction(sec["amp"]["gain"]) ** 2, Fraction(sec["amp"]["n_na_v2_per_hz"])
    two_kt = 2 * BOLTZMANN * Fraction(sec["temp_kelvin"])
    cols = {name: [] for name in ("r_l_ohms", "friis_gain", "output_snr", "noise_factor", "noise_figure_db")}
    for token in sec["r_l_sweep_ohms"]:
        w = Fraction(1) if token == "inf" else Fraction(token) / (r_s + Fraction(token))
        den = n_na + g2 * two_kt * r_s * w
        if r_s == 0:
            factor = Fraction(1) if n_na == 0 else None
        else:
            factor = den / (g2 * two_kt * r_s * w * w)
        cols["r_l_ohms"].append(INF if token == "inf" else dec(Fraction(token)))
        cols["friis_gain"].append(dec(g2 * r_s * w * w / r_out))
        cols["output_snr"].append(_quotient(g2 * (v_re * v_re + v_im * v_im) * w * w, den))
        cols["noise_factor"].append(INF if factor is None else dec(factor))
        cols["noise_figure_db"].append(INF if factor is None else CTX.divide(CTX.multiply(10, ln1p(factor - 1)), LN10))
    return cols


def _optimal(data: dict):
    """The load that optimize_load chooses for a parsed link scenario, as a
    complex, or None for the open circuit or without a search."""
    from rxfront import link

    sec, ampd = data["link"], data["amplifier"]
    if "optimize" not in sec:
        return None
    z_r, z_rt = (complex(sec[key]["re"], sec[key]["im"]) for key in ("z_r_ohms", "z_rt_ohms"))
    lnk = link.SingleLink(z_r, z_rt, sec["s_it_a2_per_hz"])
    amp = link.AmplifierNoiseModel(ampd["gain"], ampd["n_na_v2_per_hz"], ampd["temp_kelvin"])
    box = sec["optimize"]
    best, _ = link.optimize_load(lnk, amp, link.SearchBox(box["r_max_ohms"], box["x_max_ohms"], box["include_open"]))
    return None if best is link.OPEN_CIRCUIT else complex(best)


def _swept(data: dict) -> tuple:
    """The exponents and turns ratios, as floats, that a parsed match scenario sweeps."""
    from rxfront import matching
    from rxfront.commands import match

    sec = data["match"]
    best = matching.optimal_turns_ratio(sec["amp_input_resistance_ohms"], sec["link"]["z_r_ohms"]["re"])
    span, count = sec["ratio_sweep"]["span_decades"], sec["ratio_sweep"]["count"]
    exponents = match._linspace(-span / 2.0, span / 2.0, count)
    return exponents, [match._scaled(best, e) for e in exponents]


COMMANDS = {
    "capacity": capacity_columns,
    "link": lambda data: link_columns(data, _optimal(data)),
    "match": lambda data: match_columns(data, *_swept(data)),
    "noisefig": noisefig_columns,
}


def report_columns(command: str, data: dict) -> dict:
    """The exact columns of the ``command`` report of a parsed scenario,
    at the points the program chooses."""
    return COMMANDS[command](data)


def inexact_report(command: str, data: dict, report: str) -> dict:
    """inexact_cells of a ``command`` report of a parsed scenario."""
    return inexact_cells(report_columns(command, data), report)
