"""Seeded workload configs and the per-op correctness gate.

Each workload turns the benchmark seed into a stream of config files, one
per op, and names the ``qfall`` subcommands an op runs on it. Inputs are
drawn only from ranges where the grid planner picks the same number of
points for every draw, so an op's cost does not jump between power-of-two
grid sizes from one seed to the next:

* ``drop-light``: male cat and Gaussian both plan 2,048 points for
  m in [1, 2] and z0 in [1.5, 2.2] (m in [1, 4] and z0 in [1.5, 3] mixes
  1,024 and 2,048).
* ``drop-heavy``: cat 8,192 and Gaussian 4,096 points for m in [15, 17] and
  z0 in [1.5, 3].
* ``ep-decohere``: the Yurke-Stoler cat plans 2,048 points (4,096 for the
  shared decoherence domain) for z0 in [2.2, 3]; below z0 = 2.1 it plans
  4,096 for the drop as well.

The gate reads each op's written report (manifest JSON plus record CSV),
so it adds no solver work, and applies the acceptance suite's tolerances.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

STATE_KINDS = ("gaussian", "male", "female", "yurke_stoler")

# Criterion 2: solver crossing within 1e-4 (relative) of the Ehrenfest time.
CROSSING_RTOL = 1e-4
# Criterion 5: gravity/accelerated-frame identity and the a = 2g control.
IDENTITY_L1_MAX = 1e-10
CONTROL_L1_MIN = 0.1
# Criterion 8: the diagonal mixture carries no initial momentum.
MIXTURE_MEAN_P_MAX = 1e-12
# Criterion 4: sweep slopes within 0.01 of -1 and +1/2.
SLOPE_TOL = 0.01


def _pair_text(cat_kind: str, z1: float, z2: float, mass: float,
               extra: str = "") -> str:
    """A cat (delta = delta0 = 1) and a width-matched Gaussian of one mass."""
    masses = f"m_inertial = {mass!r}\nm_gravitational = {mass!r}\n"
    return (f"[particle1]\nkind = {cat_kind}\nz0 = {z1!r}\ndelta = 1.0\n"
            f"delta0 = 1.0\n{masses}\n"
            f"[particle2]\nkind = gaussian\nz0 = {z2!r}\ndelta0 = 1.0\n"
            f"{masses}{extra}")


def _decade_values(rng: random.Random, count: int = 6) -> list[float]:
    """`count` sorted positive values spanning between 1 and 1.5 decades."""
    lo = 10.0 ** rng.uniform(-0.5, 0.5)
    hi = lo * 10.0 ** rng.uniform(1.0, 1.5)
    inner = sorted(math.exp(rng.uniform(math.log(lo), math.log(hi)))
                   for _ in range(count - 2))
    return [lo, *inner, hi]


def _drop_light(rng: random.Random) -> str:
    mass, z0 = rng.uniform(1.0, 2.0), rng.uniform(1.5, 2.2)
    return _pair_text("male", z0, z0, mass)


def _drop_heavy(rng: random.Random) -> str:
    mass, z0 = rng.uniform(15.0, 17.0), rng.uniform(1.5, 3.0)
    return _pair_text("male", z0, z0, mass,
                      "\n[solver]\nrecord_stride = 8\n")


def _ep_decohere(rng: random.Random) -> str:
    return _pair_text("yurke_stoler", rng.uniform(2.2, 3.0),
                      rng.uniform(2.2, 3.0), 1.0,
                      "\n[experiment]\naccel_factor = 2.0\n")


def _closed_form(rng: random.Random) -> str:
    # The fall time grows as sqrt(m_i / m_g) only for a packet released at
    # rest; the Yurke-Stoler cat carries momentum, so it is no sweep base.
    kind = rng.choice(STATE_KINDS[:3])
    particle = f"[particle1]\nkind = {kind}\nz0 = {rng.uniform(1.5, 3.0)!r}\n"
    if kind != "gaussian":
        particle += "delta = 1.0\n"
    m_g = ", ".join(repr(v) for v in _decade_values(rng))
    ratios = ", ".join(repr(v) for v in _decade_values(rng))
    kinds = ", ".join(rng.sample(STATE_KINDS, 3))
    return (particle + "delta0 = 1.0\n\n[sweep]\n"
            f"m_g_values = {m_g}\nratio_values = {ratios}\n"
            f"state_kinds = {kinds}\n")


# name -> (config generator, subcommands one op runs on that config)
WORKLOADS = {
    "drop-light": (_drop_light, ("drop",)),
    "drop-heavy": (_drop_heavy, ("drop",)),
    "ep-decohere": (_ep_decohere, ("ep-test", "decohere")),
    "closed-form": (_closed_form, ("sweep",)),
}


def config_stream(workload: str, seed: int):
    """Yield config texts for successive ops; equal seeds give equal texts."""
    generate, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield generate(rng)


def _cell(text: str):
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        return text


def read_report(out_dir: Path) -> tuple[dict, list[dict]]:
    """Load the one manifest an experiment wrote and its record table."""
    manifests = list(out_dir.glob("*.json"))
    if len(manifests) != 1:
        raise ValueError(f"expected one manifest in {out_dir}, "
                         f"found {len(manifests)}")
    manifest = json.loads(manifests[0].read_text())
    with open(out_dir / manifest["tables"][0], newline="") as fh:
        records = [{k: _cell(v) for k, v in row.items()}
                   for row in csv.DictReader(fh)]
    return manifest, records


def check_report(command: str, manifest: dict, records: list[dict]) -> list[str]:
    """Return the acceptance checks this report fails (empty when it passes)."""
    summary, problems = manifest["summary"], []
    if command == "drop":
        for rec in records:
            gap = abs(rec["t_mean_crossing"] - rec["t_ehrenfest"])
            if not gap <= CROSSING_RTOL * rec["t_ehrenfest"]:
                problems.append(f"{rec['label']}: crossing off by {gap:.3e}")
        if summary["ehrenfest_tofs_coincide"] is not True:
            problems.append("Ehrenfest times differ")
    elif command == "ep-test":
        if summary["passed"] is not True:
            problems.append(f"identity L1 {summary['max_identity_l1']:.3e}, "
                            f"control L1 {summary['control_l1']}")
        elif not (summary["max_identity_l1"] <= IDENTITY_L1_MAX
                  and summary["control_l1"] > CONTROL_L1_MIN):
            problems.append("ep-test passed outside the pinned tolerances")
    elif command == "decohere":
        mixture = [r for r in records if r["label"] == "mixture"]
        if len(mixture) != 1 or not (
                abs(mixture[0]["initial_mean_p"]) <= MIXTURE_MEAN_P_MAX):
            problems.append("mixture carries initial momentum")
        if summary["means_differ"] is not True:
            problems.append("pure and mixture means coincide")
    elif command == "sweep":
        for name, fit in manifest["fits"].items():
            if not abs(fit["slope"] - fit["expected"]) <= SLOPE_TOL:
                problems.append(f"{name} slope {fit['slope']:.6f}")
    else:
        problems.append(f"no check for {command}")
    return problems


def physics_record(command: str, manifest: dict, records: list[dict]) -> dict:
    """The headline outputs of one report, kept so that a speed-up which
    changes the physics shows in the op log."""
    steps = manifest["config"]["solver"]["time_steps"]
    if command == "sweep":
        return {"command": command,
                "slopes": {k: f["slope"] for k, f in manifest["fits"].items()}}
    return {"command": command, "steps": steps, "runs": [
        {key: rec.get(key) for key in
         ("label", "mode", "tof_mean", "tof_std", "grid_points", "dt")
         if key in rec}
        for rec in records]}
