"""Output checks computed apart from the program.

Each check appends a one-line message to `problems` when the program's
output disagrees with an independent computation or with an exact
property of the physics; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

STRETCHED_SLOPE_KHZ_PER_G = -0.55  # c_N of the bundled couplings


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def key_values(path: Path) -> dict[str, float]:
    """`key = value  # comment` lines; a value may carry `± uncertainty`."""
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value.split("±")[0])
    return out


# ---------------------------------------------------------------------------
# composite and extraction


def composite_recomputed(data: Path, b12: float) -> tuple[float, float]:
    """Value and u_exp of the composite at weight b12, from measured_lines.json."""
    lines = read_json(data / "measured_lines.json")
    f12, f16 = lines["12"], lines["16"]
    b16 = 1.0 - b12
    value = b12 * (f12["f_exp"]["value"] - f12["f_spin"]["value"]) + b16 * (
        f16["f_exp"]["value"] - f16["f_spin"]["value"]
    )
    u_exp = math.hypot(b12 * f12["f_exp"]["components"]["exp"], b16 * f16["f_exp"]["components"]["exp"])
    return value, u_exp


def check_composite_report(problems: Problems, data: Path, report: dict) -> None:
    value, u_exp = composite_recomputed(data, report["b12"])
    problems.expect(abs(report["value_khz"] - value) <= 1e-6, f"composite value {report['value_khz']} != {value}")
    problems.expect(abs(report["u_exp_khz"] - u_exp) <= 1e-12, f"composite u_exp {report['u_exp_khz']} != {u_exp}")
    profile = [u for _, u in report["profile"]]
    problems.expect(
        all(report["u_spin_khz"] <= u * (1 + 1e-12) for u in profile),
        f"optimized u_spin {report['u_spin_khz']} exceeds a profile value {min(profile)}",
    )


def extraction_recomputed(data: Path, f_khz: float) -> tuple[float, float]:
    """mu/m_e and m_p/m_e = ref * (f/f_ref)^(1/beta), from the bundled data files."""
    ref = key_values(data / "analysis_reference.txt")
    r = key_values(data / "constants_codata2018.txt")["md_over_mp"]
    mp = ref["mu_p_ref"] * (f_khz / ref["f_ref_khz"]) ** (1.0 / ref["beta"])
    mu = ref["mu_p_ref"] * r / (1.0 + r) * (f_khz / ref["f_ref_khz"]) ** (1.0 / ref["beta"])
    return mu, mp


# ---------------------------------------------------------------------------
# metrology


def overlapping_adev(y: np.ndarray, m: int) -> float:
    """Overlapping Allan deviation from second differences of the phase x = sum(y)."""
    x = np.concatenate([[0.0], np.cumsum(y)])
    d = x[2 * m:] - 2.0 * x[m:-m] + x[: -2 * m]
    return math.sqrt(float(np.mean(d ** 2)) / (2.0 * m * m))


def check_adev_report(problems: Problems, report: dict, f_hz: np.ndarray, carrier_hz: float) -> None:
    y = (f_hz - carrier_hz) / carrier_hz
    problems.expect(report["n_samples"] == len(y), f"adev read {report['n_samples']} of {len(y)} samples")
    problems.expect(len(report["rows"]) > 0, "adev reported no averaging times")
    for row in report["rows"]:
        m = int(round(row["tau_s"] / report["tau0_s"]))
        ref = overlapping_adev(y, m)
        problems.expect(
            abs(row["adev"] - ref) <= 1e-9 * ref and row["ci_low"] <= row["adev"] <= row["ci_high"],
            f"adev at tau={row['tau_s']}: {row['adev']} vs independent {ref}",
        )


def read_counter(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)


DFG_ARGS = {
    "f_rep": 250_000_000, "f_ceo": 20_000_000, "n1": 1_150_123, "n2": 915_677,
    "beat1": 31_250_000, "beat2": 27_500_000, "s1": 1, "s2": -1,
}


def dfg_cli_args() -> list[str]:
    a = DFG_ARGS
    return [
        "dfg", "--f-rep-hz", str(a["f_rep"]), "--f-ceo-hz", str(a["f_ceo"]), "--n1", str(a["n1"]),
        "--n2", str(a["n2"]), "--beat1-hz", str(a["beat1"]), "--beat2-hz", str(a["beat2"]),
        "--beat-sign1", str(a["s1"]), "--beat-sign2", str(a["s2"]),
    ]


def check_dfg_report(problems: Problems, report: dict) -> None:
    a = DFG_ARGS
    f1 = a["n1"] * a["f_rep"] + a["f_ceo"] + a["s1"] * a["beat1"]
    f2 = a["n2"] * a["f_rep"] + a["f_ceo"] + a["s2"] * a["beat2"]
    for key, exact in (("laser1_hz", f1), ("laser2_hz", f2), ("dfg_hz", f1 - f2), ("dfg_corrected_hz", f1 - f2)):
        problems.expect(Fraction(report[key]) == exact, f"dfg {key} = {report[key]!r}, exact {exact}")


# ---------------------------------------------------------------------------
# spin structure and Zeeman maps


def check_levels(problems: Problems, name: str, n_rot: int, levels: list[tuple[int, int, float]]) -> None:
    """(F, degeneracy, energy) rows: 2F+1 degeneracies, 12(2N+1) states, zero trace."""
    problems.expect(all(deg == 2 * f + 1 for f, deg, _ in levels), f"{name}: a degeneracy is not 2F+1")
    total = sum(deg for _, deg, _ in levels)
    problems.expect(total == 12 * (2 * n_rot + 1), f"{name}: {total} states, expected {12 * (2 * n_rot + 1)}")
    trace = sum(deg * e for _, deg, e in levels)
    scale = sum(deg * abs(e) for _, deg, e in levels)
    problems.expect(abs(trace) <= 1e-9 * scale, f"{name}: weighted energy sum {trace} is not zero")


def check_spin_structure_report(problems: Problems, report: dict) -> None:
    for name, rows in report["sections"].items():
        n_rot = int(name.split("N=")[1])
        check_levels(problems, name, n_rot, [(r["f"], r["degeneracy"], r["energy_khz"]) for r in rows])


def check_zeeman_map_report(problems: Problems, report: dict, data: Path, levels: dict | None) -> None:
    """Trace zero at every field, B=0 equal to `levels`, stretched states linear in B."""
    b = np.array(report["b_gauss"])
    energies = np.array([st["energies_khz"] for st in report["states"]])
    scale = float(np.max(np.abs(energies)))
    problems.expect(
        float(np.max(np.abs(energies.sum(axis=0)))) <= 1e-9 * scale * len(energies),
        "zeeman-map: sublevel energies do not sum to zero",
    )
    if levels is not None and b[0] == 0.0:
        worst = max(abs(st["energies_khz"][0] - levels[(st["g1"], st["g2"], st["f"])]) for st in report["states"])
        problems.expect(worst <= 1e-9 * scale, f"zeeman-map: B=0 energies differ from spin-structure by {worst}")
    c = key_values(data / "zeeman_couplings.txt")
    n_rot = report["level"]["n"]
    f_max = 2 + n_rot
    slope = 0.5 * c["c_e"] + 0.5 * c["c_p"] + c["c_d"] + n_rot * c["c_N"]
    stretched = [st for st in report["states"] if abs(st["m_f"]) == f_max]
    problems.expect(len(stretched) == 2, f"zeeman-map: {len(stretched)} stretched states")
    for st in stretched:
        e = np.array(st["energies_khz"])
        line = e[0] + np.sign(st["m_f"]) * slope * (b - b[0])
        problems.expect(
            float(np.max(np.abs(e - line))) <= 1e-9 * scale,
            f"zeeman-map: stretched state m_F={st['m_f']} is not linear in B",
        )


def check_stretched_coeffs(problems: Problems, name: str, sign: int, linear: float, quadratic: float) -> None:
    expected = sign * STRETCHED_SLOPE_KHZ_PER_G
    problems.expect(abs(linear - expected) <= 1e-6, f"{name}: linear {linear} kHz/G, expected {expected}")
    problems.expect(abs(quadratic) < 1e-6, f"{name}: quadratic {quadratic} kHz/G^2 is not zero")
