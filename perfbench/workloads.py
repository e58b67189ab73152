"""Seeded workload generators.

Each workload is a cycle of operations: one `quadint check` or `quadint solve`
invocation each, with the outcome it must produce.  The same seed gives the
same problem files and the same cycle.  Every (argv) in a cycle appears at
least twice, so a single pass over the cycle already exercises the
byte-identical-report contract, and per-operation counts averaged over whole
cycles do not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

WORKLOADS = ("cli-cold", "solve-3d", "constants-tanh")

# Shipped problem files and what each must produce at this commit.
SHIPPED = {
    "certified": "problems/gaussian_certified.json",
    "two": "problems/two_component.json",
    "uncertified": "problems/gaussian_uncertified.json",
}

SOLVE_3D_TOL = 1e-8       # between delta_2 (~3e-11) and delta_1 (~3e-6): 2 steps
CONSTANTS_TANH_TOL = 1e-10
SHIPPED_TOL = 1e-10


@dataclass(frozen=True)
class Op:
    """One CLI invocation without `--out`, plus its expected outcome."""

    argv: tuple[str, ...]
    expect_rc: int
    expect_certified: bool
    expect_converged: bool | None   # None: the report has no solve section
    tol: float | None               # residual tolerance passed with --tol

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Workload:
    name: str
    cold: bool                      # each operation is a fresh interpreter
    inputs: tuple[str, ...]         # problem files, relative to the checkout
    cycle: tuple[Op, ...]


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(0, 2 ** 31) for _ in range(count)]


def _twice_shuffled(rng: random.Random, ops: list[Op]) -> tuple[Op, ...]:
    first, second = list(ops), list(ops)
    rng.shuffle(first)
    rng.shuffle(second)
    return tuple(first + second)


def _gauss(amp: float, alpha: float, d: int) -> str:
    r2 = "-".join(f"{alpha!r}*x{i}^2" for i in range(1, d + 1))
    return f"{amp!r}*exp(-{r2})"


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def cli_cold(rng: random.Random, root: Path, _inputs_dir: Path) -> Workload:
    """The shipped files: check and solve on the two certified ones, check
    (exit 1) and solve --best-effort on the uncertified one."""
    s = _seeds(rng, 6)
    cert, two, unc = SHIPPED["certified"], SHIPPED["two"], SHIPPED["uncertified"]
    tol = ["--tol", repr(SHIPPED_TOL)]
    ops = [
        Op(("check", cert, "--seed", str(s[0])), 0, True, None, None),
        Op(("solve", cert, "--seed", str(s[1]), *tol), 0, True, True, SHIPPED_TOL),
        Op(("check", two, "--seed", str(s[2])), 0, True, None, None),
        Op(("solve", two, "--seed", str(s[3]), *tol), 0, True, True, SHIPPED_TOL),
        Op(("check", unc, "--seed", str(s[4])), 1, False, None, None),
        Op(("solve", unc, "--seed", str(s[5]), *tol, "--best-effort"),
           0, False, True, SHIPPED_TOL),
    ]
    for rel in SHIPPED.values():
        if not (root / rel).is_file():
            raise FileNotFoundError(f"shipped problem file missing: {rel}")
    return Workload("cli-cold", True, tuple(SHIPPED.values()),
                    _twice_shuffled(rng, ops))


def solve_3d(rng: random.Random, root: Path, inputs_dir: Path) -> Workload:
    """3-D n=64, two components, g = (z1 z2, z1^2); sigma about 0.36.  The
    seed moves the u0 amplitudes and widths by up to 10%, which keeps sigma
    below 0.5 and the step-2 residual far below SOLVE_3D_TOL."""
    files, ops = [], []
    for k, seed in enumerate(_seeds(rng, 3)):
        a1, a2 = 0.1 * rng.uniform(0.9, 1.1), 0.05 * rng.uniform(0.9, 1.1)
        w1, w2 = rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1)
        doc = {
            "grid": {"d": 3, "n": 64, "L": 8.0},
            "components": 2,
            "kernels": [{"type": "expression", "expr": _gauss(0.002, 1.0, 3)},
                        {"type": "expression", "expr": _gauss(0.002, 2.0, 3)}],
            "operators": [{"type": "inverse_helmholtz"},
                          {"type": "scaled_identity", "alpha": 0.5}],
            "u0": [_gauss(a1, w1, 3), _gauss(a2, w2, 3)],
            "g": ["z1*z2", "z1^2"],
        }
        path = inputs_dir / f"solve3d-{k}.json"
        _write(path, doc)
        rel = str(path.relative_to(root))
        files.append(rel)
        ops.append(Op(("solve", rel, "--seed", str(seed), "--tol", repr(SOLVE_3D_TOL)),
                      0, True, True, SOLVE_3D_TOL))
    return Workload("solve-3d", False, tuple(files), _twice_shuffled(rng, ops))


def constants_tanh(rng: random.Random, root: Path, inputs_dir: Path) -> Workload:
    """2-D n=32, N=6 cyclic g_m = tanh(z_m z_{m+1}); M is the sampled route
    (2(N + N^2) = 84 ball-point sets per estimate).  u0 amplitudes in
    [0.02, 0.04] keep sigma near 0.15 for every --seed."""
    n = 6
    files, ops = [], []
    for k, seed in enumerate(_seeds(rng, 2)):
        doc = {
            "grid": {"d": 2, "n": 32, "L": 8.0},
            "components": n,
            "kernels": [{"type": "expression", "expr": _gauss(2e-4, 1.0, 2)}] * n,
            "operators": [{"type": "inverse_helmholtz"}] * n,
            "u0": [_gauss(rng.uniform(0.02, 0.04), rng.uniform(0.8, 1.25), 2)
                   for _ in range(n)],
            "g": [f"tanh(z{m + 1}*z{(m + 1) % n + 1})" for m in range(n)],
        }
        path = inputs_dir / f"tanh-{k}.json"
        _write(path, doc)
        rel = str(path.relative_to(root))
        files.append(rel)
        ops.append(Op(("solve", rel, "--seed", str(seed), "--tol",
                       repr(CONSTANTS_TANH_TOL)), 0, True, True, CONSTANTS_TANH_TOL))
    return Workload("constants-tanh", False, tuple(files), _twice_shuffled(rng, ops))


_GENERATORS = {"cli-cold": cli_cold, "solve-3d": solve_3d, "constants-tanh": constants_tanh}


def build(name: str, seed: int, root: Path, inputs_dir: Path) -> Workload:
    """Generate the inputs of workload `name` under `inputs_dir`."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    # one stream per workload, so adding a workload never changes another
    return _GENERATORS[name](random.Random(f"{name}:{seed}"), root, inputs_dir)
