"""The benchmark's workloads: seeded inputs, the timed operation, output checks.

A workload hands out operations by index.  ``prepare(i)`` builds the input
of operation i from the workload seed (outside the timed region),
``run(inp)`` is the timed call into l0bounds, and ``check(inp, out)``
returns the problems found in its output (an empty list when it is
correct).  The checks test invariants, not frozen values, so a declared
correctness fix in the library does not break them.

Why these workloads, and which layers each one stresses, is written down
in README.md beside this file.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

from l0bounds import cli, harness

COVERAGE = {
    # +-1 design with a boundary truth: about half of the replicates end in
    # the facet phase, whose KKT system has about n/2 tied active rows.
    "glm_boundary": dict(
        n=1200, p=8, spt_size=2, model="glm", family="bernoulli",
        design="pm1_iid", interval_halfwidth=1.0, c_r="theorem",
    ),
    # 121 supports with two Gauss-Newton starts each and interior optima.
    "flip_enum": dict(
        n=400, p=15, spt_size=2, model="flip", p01=0.1, p11=0.9,
        design="pm1_iid", interval_halfwidth=3.0, c_r=1.0,
    ),
}
SMOKE_COVERAGE = {"glm_boundary": dict(n=200), "flip_enum": dict(n=60, p=6)}

LINK = {"tag": "logistic_flip", "p01": 0.1, "p11": 0.9}
BOUNDS_COMMON = {
    "design": {"tag": "gaussian_iid", "n": 20000, "p": 200},
    "interval": [-1.5, 1.5], "q": 0.1, "nu": 0.5, "K": 60,
}
BOUNDS = {
    "glm": {"theorem": "glm", "family": {"tag": "bernoulli"}},
    "one_disc": {"theorem": "one_disc", "link": LINK, "theta": 0.75},
    "ub_strip": {"theorem": "ub_strip", "link": LINK, "rho1": math.pi / 2, "theta": 0.75},
    "ub_interval": {"theorem": "ub_interval", "link": LINK, "rho1": math.pi / 2, "theta": 0.75},
}
GRID = {
    "design": {"tag": "pm1_iid", "n": 200, "p": 15},
    "link": LINK,
    "domain": {"interval": [-1.5, 1.5], "max_support": 1, "l1inf_cap": 1.5},
    "h": 2,
}
SMOKE_BOUNDS = {"design": {"tag": "gaussian_iid", "n": 400, "p": 20}, "K": 12}
SMOKE_GRID = {"design": {"tag": "pm1_iid", "n": 30, "p": 6}}

# Replicates whose coverage rows enter the printed digest.
DIGEST_REPLICATES = 10


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i, derived from the workload seed."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def _rel_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


class CoverageWorkload:
    """One ``run_coverage`` call per operation, each a single fresh replicate."""

    kinds = ("replicate",)

    def __init__(self, name: str, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.params = dict(COVERAGE[name], **(SMOKE_COVERAGE[name] if smoke else {}))
        self.results = []  # (config, CoverageResult) in operation order

    def setup(self):
        harness.ExperimentConfig(replicates=1, **self.params)  # validates the config

    def prepare(self, i: int):
        cfg = harness.ExperimentConfig(replicates=1, seed=op_seed(self.seed, i), **self.params)
        return "replicate", cfg

    def run(self, cfg, tag: str = ""):
        return harness.run_coverage(cfg)

    def fingerprint(self, out) -> str:
        return repr(out.rows)

    def check(self, cfg, res) -> list:
        self.results.append((cfg, res))
        bad = []
        if len(res.rows) != cfg.replicates:
            bad.append("row count differs from the replicate count")
        if res.n_fit_errors != sum(1 for r in res.rows if r["fit_error"]):
            bad.append("n_fit_errors disagrees with the rows")
        h_max = max(cfg.spt_size, cfg.h_max or 0)
        for row in res.rows:
            if row["fit_error"]:
                bad.append(f"fit_error: {row['fit_error']}")
                continue
            for col in ("error", "radius", "c_r", "kappa_r", "mu"):
                if not math.isfinite(row[col]):
                    bad.append(f"{col} is not finite and the row is not flagged")
            if not 0 <= row["spt_hat"] <= h_max:
                bad.append(f"support size {row['spt_hat']} outside [0, {h_max}]")
            if row["hit"] != int(row["error"] <= row["radius"]):
                bad.append("hit flag disagrees with error <= radius")
            if row["budget_ok"] not in (0, 1):
                bad.append("budget_ok is not 0/1")
            if not _rel_close(row["radius"], row["kappa_r"] * math.sqrt(cfg.spt_size / cfg.n)):
                bad.append("radius != kappa_r sqrt(s/n)")
            if cfg.c_r != "theorem" and row["c_r"] != float(cfg.c_r):
                bad.append("c_r differs from the configured penalty")
        return bad

    def summary(self) -> dict:
        """Vacuity counters and the rows digest, computed after the timed region."""
        rows = [(cfg, row) for cfg, res in self.results for row in res.rows]
        fitted = [row for _cfg, row in rows if not row["fit_error"]]
        ratios = []
        for cfg, row in rows:
            beta = harness.generate_instance(cfg, row["replicate"]).beta
            ratios.append(row["radius"] / float(np.linalg.norm(beta)))
        digest = hashlib.sha256()
        first = self.results[:DIGEST_REPLICATES]
        for k, (_cfg, res) in enumerate(first):
            path = self.tmp / f"rows_{k}.csv"
            res.to_csv(path)
            digest.update(path.read_bytes())
        return {
            "vacuity.empty_fit_frac": (
                sum(row["spt_hat"] == 0 for row in fitted) / len(fitted) if fitted else 0.0
            ),
            "vacuity.budget_ok_frac": statistics.fmean(res.budget_ok_frac for _c, res in self.results),
            "vacuity.radius_over_beta_p50": statistics.median(ratios),
            f"digest.coverage_rows_first{len(first)}": digest.hexdigest(),
        }


class BoundsWorkload:
    """In-process ``l0bounds bounds`` / ``grid`` commands on fresh designs.

    ub_interval runs once, as the first operation; the cheap commands then
    cycle until the time is up.  Every command gets a design seeded for that
    operation, so a cache kept in memory between calls cannot serve it.
    """

    kinds = ("ub_interval", "glm", "one_disc", "ub_strip", "grid")

    def __init__(self, name: str, seed: int, smoke: bool, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.smoke = smoke
        self.digests = {}

    def setup(self):
        self.tmp.mkdir(parents=True, exist_ok=True)

    def _config(self, kind: str, design_seed: int) -> dict:
        if kind == "grid":
            cfg = dict(GRID, **(SMOKE_GRID if self.smoke else {}))
        else:
            cfg = dict(BOUNDS_COMMON, **BOUNDS[kind], **(SMOKE_BOUNDS if self.smoke else {}))
        cfg = copy.deepcopy(cfg)
        cfg["design"]["seed"] = design_seed
        return cfg

    def prepare(self, i: int):
        kind = self.kinds[0] if i == 0 else self.kinds[1 + (i - 1) % (len(self.kinds) - 1)]
        path = self.tmp / f"op_{i}.json"
        path.write_text(json.dumps(self._config(kind, op_seed(self.seed, i))))
        return kind, (kind, path, i)

    def run(self, inp, tag: str = ""):
        kind, path, i = inp
        out = self.tmp / f"out_{i}{tag}"
        command = "grid" if kind == "grid" else "bounds"
        rc = cli.main([command, "--config", str(path), "--out", str(out), "--quiet"])
        return rc, out / f"{command}.json"

    def fingerprint(self, out) -> str:
        rc, path = out
        return f"{rc}:{path.read_bytes().hex() if rc == 0 else ''}"

    def check(self, inp, out) -> list:
        kind, _path, _i = inp
        rc, path = out
        if rc != 0:
            return [f"{kind}: exit code {rc}"]
        raw = path.read_bytes()
        self.digests.setdefault(f"digest.{kind}_json_first", hashlib.sha256(raw).hexdigest())
        rep = json.loads(raw)
        if kind == "grid":
            bad = []
            if not 1 <= rep["size"] <= rep["cardinality_bound"]:
                bad.append("grid size outside [1, cardinality_bound]")
            if len(rep["points"]) != rep["size"]:
                bad.append("grid lists a different number of points than its size")
            return bad
        bad = []
        if rep["theorem"] != BOUNDS[kind]["theorem"]:
            bad.append(f"theorem {rep['theorem']!r} != {kind!r}")
        c1, c2 = rep["c1"], rep["c2"]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in (c1, c2)):
            return bad + ["c1 and c2 must be finite and positive"]
        if not _rel_close(rep["c_r"], 3.0 * c1**2 / c2):
            bad.append("c_r != 3 c1^2 / c2")
        if not _rel_close(rep["kappa_r"], 3.0 * c1 / c2):
            bad.append("kappa_r != 3 c1 / c2")
        return bad

    def summary(self) -> dict:
        return dict(sorted(self.digests.items()))


WORKLOADS = {
    "glm_boundary": CoverageWorkload,
    "flip_enum": CoverageWorkload,
    "bounds_cli": BoundsWorkload,
}
