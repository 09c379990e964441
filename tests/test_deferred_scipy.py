"""brlab loads scipy.special at its first Gauss rule, log-gamma or Bessel call.

Importing ``scipy.special`` costs ~0.3 s, so ``brlab`` and ``brlab.cli``
import without it, and the experiments that build no Gauss rule, take no
log-gamma and evaluate no Bessel function never load it.  The deferred
functions stay module attributes that callers reach through their module
globals, so replacing one still intercepts every call.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.special

from brlab import bessel, kernel
from brlab.decomposition import DyadicPiece, make_bump
from brlab.kernel import KernelPoint, envelope_fit, kernel_quadrature

#: small-grid variants of the default experiments that need no scipy.special
SCIPY_FREE_RUNS = [
    ["regions", "--p1", "1", "--p2", "2"],
    ["regions", "--resolution", "16"],
    ["evaluate", "--N", "32", "--L", "8", "--alpha", "2"],
    ["decay", "--mode", "tj", "--N", "32", "--L", "8", "--alpha", "2", "--j-range", "0:3",
     "--trials", "1"],
    ["decay", "--mode", "gamma", "--alpha", "2", "--j-range", "0:2", "--k-max", "8"],
    ["norms", "--experiment", "lemma1", "--p", "1", "--N", "64", "--b", "2",
     "--widths", "1/2,1,2"],
    ["norms", "--experiment", "corollary", "--alpha", "3/2", "--N", "32", "--trials", "1"],
]

SCRIPT = """
import sys

def check(step):
    assert "scipy.special" not in sys.modules, f"scipy.special loaded by {step}"

import brlab
check("import brlab")
from brlab import cli
check("import brlab.cli")
for i, argv in enumerate(RUNS):
    assert cli.main(argv + ["--seed", "1", "--outdir", f"{OUT}/{i}"]) == 0, argv
    check(" ".join(argv))
from brlab.kernel import KernelPoint, kernel_quadrature
kernel_quadrature(KernelPoint(0.5, 0.25), 2.0, 1)
assert "scipy.special" in sys.modules, "kernel_quadrature ran without scipy.special"
print("ok")
"""


BESSEL_SCRIPT = """
import sys
import brlab
assert "scipy.special" not in sys.modules, "scipy.special loaded by import brlab"
brlab.bessel_j(0, 1.0)
assert "scipy.special" in sys.modules, "bessel_j ran without scipy.special"
print("ok")
"""


def _run_fresh(code: str) -> None:
    src = str(Path(bessel.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


def test_brlab_starts_without_scipy(tmp_path):
    _run_fresh(f"RUNS = {SCIPY_FREE_RUNS!r}\nOUT = {str(tmp_path)!r}\n" + SCRIPT)


def test_first_bessel_call_loads_scipy():
    _run_fresh(BESSEL_SCRIPT)


def test_bessel_hooks_intercept_every_call(monkeypatch):
    # bessel_j reaches scipy through the module attributes j0, j1 and jv, so
    # replacing them sees its calls, from sphere_ft and kernel_radial too
    calls = []
    for name in ("j0", "j1", "jv"):
        proxy = getattr(bessel, name)

        def hook(*args, name=name, proxy=proxy):
            calls.append((name, np.size(args[-1])))
            return proxy(*args)

        monkeypatch.setattr(bessel, name, hook)
    r = np.array([0.5, 3.0, 40.0])
    bessel.bessel_j(0, r)
    bessel.bessel_j(1, 2.0)
    bessel.bessel_j(2.5, r)
    bessel.sphere_ft(r, [1.0, 0.0], 2)
    kernel.kernel_radial(r, 2.0, 1)
    assert calls == [("j0", 3), ("j1", 1), ("jv", 3), ("j0", 3), ("jv", 3)]


def test_rule_hooks_intercept_every_build(monkeypatch):
    # the rule attributes see every request, memo hits included; the
    # builders behind them run once per distinct rule
    requests, builds = [], []

    def counted(module, name):
        rule = getattr(module, name)

        def request(*args):
            requests.append((module.__name__, name, args[0]))
            return rule(*args)

        monkeypatch.setattr(module, name, request)

    def counted_builder(provider):
        build = getattr(scipy.special, provider.name)

        def builder(*args):
            builds.append((provider.name, args[0]))
            return build(*args)

        monkeypatch.setattr(provider, "fn", builder)

    monkeypatch.setattr(bessel, "_RULES", {})
    counted_builder(bessel.roots_jacobi)
    counted_builder(kernel.roots_legendre)
    counted(kernel, "roots_jacobi")
    counted(kernel, "roots_legendre")
    counted(bessel, "roots_jacobi")
    for _ in range(2):
        kernel_quadrature(KernelPoint(0.5, 0.25), 2.0, 1)
    pair = [("brlab.kernel", "roots_jacobi", 128), ("brlab.kernel", "roots_legendre", 128)]
    assert requests == 2 * pair
    assert builds == [("roots_jacobi", 128), ("roots_legendre", 128)]
    requests.clear()
    builds.clear()
    pieces = [DyadicPiece(j, 2.0) for j in range(3)]
    points = [KernelPoint(a, b) for a in (0.0, 1.5) for b in (0.0, 3.0)]
    envelope_fit(pieces, 1, 2.0, points, make_bump())
    assert requests == 3 * [("brlab.kernel", "roots_legendre", kernel.PIECE_NODES)]
    assert builds == [("roots_legendre", kernel.PIECE_NODES)]
    requests.clear()
    builds.clear()
    for _ in range(2):
        bessel.bessel_j_oracle(1.25, 3.0)
    assert requests == 2 * [("brlab.bessel", "roots_jacobi", bessel.ORACLE_NODES)]
    assert builds == [("roots_jacobi", bessel.ORACLE_NODES)]


def test_deferred_functions_match_scipy_bitwise():
    assert kernel.gammaln is bessel.gammaln
    assert kernel.roots_jacobi is bessel.roots_jacobi
    x = np.array([0.5, 1.5, 2.5, 3.0, 7.25, 29.5])
    assert bessel.gammaln(x).tobytes() == scipy.special.gammaln(x).tobytes()
    assert bessel.gammaln(2.5) == scipy.special.gammaln(2.5)
    assert bessel.j0(x).tobytes() == scipy.special.j0(x).tobytes()
    assert bessel.j1(x).tobytes() == scipy.special.j1(x).tobytes()
    assert bessel.jv(2.5, x).tobytes() == scipy.special.jv(2.5, x).tobytes()
    for got, want in [
        (bessel.roots_jacobi(256, 1.5, 1.5), scipy.special.roots_jacobi(256, 1.5, 1.5)),
        (kernel.roots_jacobi(128, 2.0, 0.0), scipy.special.roots_jacobi(128, 2.0, 0.0)),
        (kernel.roots_legendre(512), scipy.special.roots_legendre(512)),
    ]:
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
