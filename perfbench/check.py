"""Output check of one covspec bundle, with numpy only and no covspec code.

``check_bundle`` returns a list of problems; an empty list means the bundle
is correct. It checks that the manifest is complete and matches the files on
disk, that the files are the ones the workload's analyses write, that the
spectra agree with eigenvalues of independently built matrices, and that
the projector, trace and lagged-correlation identities hold.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import Inputs, Workload, kernel_weights, reference_matrix

# Eigenvalue agreement, as absolute error over the date's largest eigenvalue:
# the error a backward-stable eigensolver guarantees. The workloads show at
# most 4e-15 (N=250); the sliding update adds drift of the same order.
EIG_TOL = 1e-12
# Matrix agreement of the dumped covariances, over the largest entry (1e-15 seen).
MATRIX_TOL = 1e-12
# Identities that hold up to rounding: traces, sums, recomputed summaries.
IDENTITY_TOL = 1e-9
SAMPLED_DATES = 8

FILES_BY_ANALYSIS = {
    "spectrum": ("spectrum.csv", "mean_spectrum.csv"),
    "density": ("density.csv",),
    "mp-compare": ("mp_compare.json",),
    "ansatz": ("ansatz.json", "density_of_states.csv"),
    "projectors": ("mean_projector_spectrum.csv",),
    "fluctuation": ("fluctuation_index.csv",),
    "lagged": ("lagged_correlation.csv",),
}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def verify_manifest(output_dir: Path) -> tuple[dict | None, list[str]]:
    """Load the manifest; it must be complete and match every file on disk."""
    path = output_dir / "manifest.json"
    if not path.is_file():
        return None, ["manifest.json is missing"]
    manifest = json.loads(path.read_text())
    problems = []
    if manifest.get("complete") is not True:
        problems.append(f"manifest is incomplete: {manifest.get('error')!r}")
    for entry in manifest.get("files", []):
        f = output_dir / entry["name"]
        if not f.is_file():
            problems.append(f"{entry['name']}: listed but missing")
        elif f.stat().st_size != entry["bytes"] or sha256(f) != entry["sha256"]:
            problems.append(f"{entry['name']}: size or sha256 differs from the manifest")
    return manifest, problems


def _table(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a, b, tol=IDENTITY_TOL) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def expected_files(w: Workload, eval_dates: list[str]) -> set[str]:
    names = {n for a in w.analyses for n in FILES_BY_ANALYSIS[a]}
    if w.source == "csv":
        names.add("provenance.log")
    if w.dump:
        names |= {f"matrices/{w.flavor}_{d}.csv" for d in eval_dates}
    return names


def _sample(count: int) -> list[int]:
    return sorted(set(np.linspace(0, count - 1, SAMPLED_DATES).round().astype(int)))


def check_spectra(w, inp, out, eval_idx, problems):
    header, rows = _table(out / "spectrum.csv")
    n = w.n_assets
    dates = [r[0] for r in rows]
    if dates != [inp.dates[j] for j in eval_idx] or len(header) != n + 1:
        problems.append("spectrum.csv: dates or columns differ from the workload")
        return None
    values = np.array([r[1:] for r in rows], dtype=float)
    if np.any(np.diff(values, axis=1) > 0):
        problems.append("spectrum.csv: a row is not in descending order")
    for t in _sample(len(eval_idx)):
        ref = np.linalg.eigvalsh(reference_matrix(w, inp.returns, eval_idx[t], w.flavor))[::-1]
        err = float(np.max(np.abs(values[t] - ref))) / ref[0]
        if not err <= EIG_TOL:
            problems.append(f"spectrum.csv: eigenvalues at {dates[t]} off by {err:.3g} of lambda_max")

    _, rows = _table(out / "mean_spectrum.csv")
    mask = values > 1e-12 * values[:, :1]
    counts = mask.sum(axis=0)
    logs = np.where(mask, np.log(np.where(mask, values, 1.0)), 0.0).sum(axis=0)
    for rank, (r, c) in enumerate(zip(rows, counts)):
        ref = math.exp(logs[rank] / c) if c else math.nan
        if int(r[2]) != c or not (_close(float(r[1]), ref) or (c == 0 and r[1] == "nan")):
            problems.append(f"mean_spectrum.csv: rank {rank + 1} differs from the log-mean")
            break
    return values


def check_density(out, values, problems):
    _, rows = _table(out / "density.csv")
    table = np.array(rows, dtype=float)
    centers, widths, dens = table.T
    lo, hi = centers[0] - widths[0] / 2, centers[-1] + widths[-1] / 2
    inside = float(np.mean((values >= lo) & (values <= hi)))
    # Edges rebuilt from centers can move an eigenvalue that sits on the
    # outer edge across it; allow two such eigenvalues.
    slack = 2.0 / values.size
    if np.any(dens < 0) or abs(float(np.sum(dens * widths)) - inside) > slack:
        problems.append("density.csv: mass does not match the eigenvalues inside its bins")


def check_mp(w, out, problems):
    mp = json.loads((out / "mp_compare.json").read_text())
    q = w.n_assets * float(np.sum(kernel_weights(w) ** 2))
    lo, hi = (1 - math.sqrt(q)) ** 2, (1 + math.sqrt(q)) ** 2
    ok = (_close(mp["q_from_teff"], q) and _close(mp["q_used"], q)
          and _close(mp["support"][0], lo) and _close(mp["support"][1], hi)
          and 0 < mp["q_fitted"] <= 1 and 0 <= mp["outside_support_fraction"] <= 1
          and math.isfinite(mp["mad_per_bin"]))
    if not ok:
        problems.append("mp_compare.json: q, support or summaries out of range")


def check_ansatz(w, out, problems):
    fit = json.loads((out / "ansatz.json").read_text())
    lo, hi = fit["fit_range"]
    ok = (fit["a"] > 0 and fit["b"] > 0 and fit["eps_mid"] > 0
          and math.isfinite(fit["rms_residual"]) and fit["n_ranks"] == w.n_assets
          and 1 <= lo < hi <= w.n_assets)
    _, rows = _table(out / "density_of_states.csv")
    curve = np.array(rows, dtype=float)
    if not ok or not np.all(np.isfinite(curve)) or np.any(curve[:, 1] <= 0):
        problems.append("ansatz.json / density_of_states.csv: fit or curve out of range")


def check_projectors(w, out, problems):
    n = w.n_assets
    sq_sums = {}
    if "projectors" in w.analyses:
        _, rows = _table(out / "mean_projector_spectrum.csv")
        for k in w.ranks:
            vals = np.array([float(r[2]) for r in rows if int(r[0]) == k])
            sq_sums[k] = float(np.sum(vals**2))
            if (vals.size != n or not _close(float(vals.sum()), k)
                    or vals.min() < -IDENTITY_TOL or vals.max() > 1 + IDENTITY_TOL):
                problems.append(f"mean_projector_spectrum.csv: k={k} spectrum does not sum to k in [0,1]")
    if "fluctuation" in w.analyses:
        _, rows = _table(out / "fluctuation_index.csv")
        by_k = {int(r[0]): [float(x) for x in r[1:]] for r in rows}
        for k in w.ranks:
            gamma, gamma_max, ratio = by_k.get(k, (math.nan,) * 3)
            ok = (_close(gamma_max, 1 - k / n) and -IDENTITY_TOL <= gamma <= gamma_max + IDENTITY_TOL
                  and _close(ratio, gamma / gamma_max))
            if k in sq_sums:
                ok = ok and _close(gamma, 1 - sq_sums[k] / k)
            if not ok:
                problems.append(f"fluctuation_index.csv: k={k} violates gamma <= gamma_max")


def check_lagged(w, out, problems):
    _, rows = _table(out / "lagged_correlation.csv")
    series = ["covariance", "correlation"] + [f"projector_k{k}" for k in w.ranks]
    expected = [(s, lag) for s in series for lag in w.lags]
    if [(r[0], int(r[1])) for r in rows] != expected:
        problems.append("lagged_correlation.csv: series or lags differ from the workload")
        return
    for label, lag, rho in rows:
        rho = float(rho)
        if not math.isfinite(rho) or (int(lag) == 0 and rho != 1.0):
            problems.append(f"lagged_correlation.csv: {label} rho({lag}) = {rho}")
            return


def check_inputs_side(w, inp, out, eval_idx, problems):
    lines = (out / "provenance.log").read_text().splitlines()
    if sorted(lines) != sorted(f"{d},{a},forward-fill" for d, a in inp.blanks):
        problems.append("provenance.log: forward-fill records differ from the blank cells")
    if not w.dump:
        return
    for t in _sample(len(eval_idx)):
        date = inp.dates[eval_idx[t]]
        rows = (out / "matrices" / f"{w.flavor}_{date}.csv").read_text().splitlines()
        ref = reference_matrix(w, inp.returns, eval_idx[t], w.flavor)
        got = [np.array(r.split(","), dtype=float) for r in rows]
        err = max(float(np.max(np.abs(g - ref[i, : i + 1]))) for i, g in enumerate(got))
        if len(got) != w.n_assets or not err <= MATRIX_TOL * float(np.max(np.abs(ref))):
            problems.append(f"matrices: dump at {date} differs from the reference covariance")


def check_bundle(w: Workload, inp: Inputs, out: Path) -> list[str]:
    """Full check of the bundle in ``out``; returns the problems found."""
    manifest, problems = verify_manifest(out)
    if manifest is None or problems:
        return problems
    eval_idx = list(range(len(inp.dates) - w.eval_dates, len(inp.dates)))
    listed = {e["name"] for e in manifest["files"]}
    want = expected_files(w, [inp.dates[j] for j in eval_idx])
    if listed != want:
        diff = sorted(listed ^ want)[:5]
        problems.append(f"bundle files differ from the workload's analyses: {diff}")
        return problems
    values = check_spectra(w, inp, out, eval_idx, problems)
    if values is not None and "density" in w.analyses:
        check_density(out, values, problems)
    if "mp-compare" in w.analyses:
        check_mp(w, out, problems)
    if "ansatz" in w.analyses:
        check_ansatz(w, out, problems)
    check_projectors(w, out, problems)
    if "lagged" in w.analyses:
        check_lagged(w, out, problems)
    if w.source == "csv":
        check_inputs_side(w, inp, out, eval_idx, problems)
    return problems
