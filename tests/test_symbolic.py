"""A symbolic oracle for multicycle.battery_map.

The battery I/2 + P.sigma goes through the six stages of one cycle, in the
order of validate._stage_cycle, as exact sympy matrices over the symbols
c, s = cos, sin theta, C, S = cos, sin theta_c, the dephasing factors f_r and
f_t, the fuel m = p_mx and the populations p0 and q0. The affine map
P -> A P + b read off the result must equal the closed form that the
multicycle docstring states, and battery_map must agree with it numerically.
"""

import re

import numpy as np
import pytest
import sympy as sp
from sympy.parsing.sympy_parser import convert_xor, implicit_multiplication, parse_expr, standard_transformations

from spinotto import multicycle
from spinotto.multicycle import battery_map
from spinotto.validate import ORACLE_TOL, random_noisy_configs

NAMES = "c s C S f_r f_t m p0 q0"
SYMBOLS = dict(zip(NAMES.split(), sp.symbols(NAMES, real=True)))
c, s, C, S, f_r, f_t, m, p0, q0 = SYMBOLS.values()
P = sp.symbols("p_x p_y p_z", real=True)
SIGMA = (sp.Matrix([[0, 1], [1, 0]]), sp.Matrix([[0, -sp.I], [sp.I, 0]]), sp.Matrix([[1, 0], [0, -1]]))
# c^2 + s^2 = 1 and C^2 + S^2 = 1, as reductions of a polynomial
PYTHAGORAS = {s**2: 1 - c**2, S**2: 1 - C**2}


def reduced(expr):
    """expr expanded, with s^2 and S^2 (and their powers) rewritten by PYTHAGORAS."""
    return sp.expand(sp.expand(expr).subs(PYTHAGORAS))


def dephase(joint, f):
    """dephase_battery: scale every entry between different battery levels by f."""
    return sp.Matrix(4, 4, lambda i, j: joint[i, j] * (f if i % 2 != j % 2 else 1))


def stroke(joint, cos, sin):
    """power_stroke: U joint U^dagger with U the flip-flop rotation on {|01>, |10>}."""
    u = sp.Matrix([[1, 0, 0, 0], [0, cos, -sp.I * sin, 0], [0, -sp.I * sin, cos, 0], [0, 0, 0, 1]])
    return u * joint * u.H


def battery_marginal(joint):
    """partial_trace(joint, "battery"): sum over the medium (left) index."""
    return sp.Matrix(2, 2, lambda b, d: joint[b, d] + joint[2 + b, 2 + d])


@pytest.fixture(scope="module")
def derived():
    """A and b of one cycle, pushed through the stages of validate._stage_cycle."""
    hot = sp.Matrix([[p0, m], [m, 1 - p0]])
    cold = sp.diag(q0, 1 - q0)
    battery = sp.eye(2) / 2 + sum((p * sigma for p, sigma in zip(P, SIGMA)), sp.zeros(2))
    joint = stroke(dephase(sp.kronecker_product(hot, battery), f_r), c, s)
    joint = dephase(sp.kronecker_product(cold, battery_marginal(joint)), f_r)
    joint = dephase(stroke(joint, C, S), f_t)
    image = [reduced((battery_marginal(joint) * sigma).trace() / 2) for sigma in SIGMA]
    A = sp.Matrix(3, 3, lambda i, j: sp.diff(image[i], P[j]))
    b = sp.Matrix([x.subs(dict.fromkeys(P, 0)) for x in image])
    return A, b


def docstring_map():
    """A and b as the multicycle docstring writes them, parsed from its text."""
    doc = multicycle.__doc__
    block = doc[doc.index("A = [["):doc.index("So p_x")]
    transformations = standard_transformations + (implicit_multiplication, convert_xor)

    def parse(text, **extra):
        return parse_expr(text, local_dict={**SYMBOLS, **extra}, transformations=transformations)

    a = parse(re.search(r"a = ([^,]+),", block).group(1))
    A = sp.Matrix([[parse(x, a=a) for x in row.split(",")] for row in re.findall(r"\[([^\[\]]+)\]", block)])
    b = sp.Matrix([parse(x) for x in re.search(r"b = \((.+)\)\.", block).group(1).split(",")])
    return A, b


def test_the_stages_give_the_docstrings_closed_form(derived):
    for got, want in zip(derived, docstring_map()):
        assert got.shape == want.shape
        assert (got - want).applyfunc(reduced) == sp.zeros(*got.shape)


def test_battery_map_evaluates_the_derivation(derived):
    batch = random_noisy_configs(np.random.default_rng(90), 1000, cycles=1)
    theta, theta_c = batch.theta, batch.compression_theta
    values = (np.cos(theta), np.sin(theta), np.cos(theta_c), np.sin(theta_c), batch.battery_dephasing_per_reset,
              batch.battery_t2_per_cycle, batch.p_mx, batch.hot_populations[:, 0], batch.cold_populations[:, 0])
    for closed, symbolic, shape in zip(battery_map(batch), derived, ((3, 3), (3,))):
        entries = sp.lambdify(list(SYMBOLS.values()), list(symbolic), "numpy")(*values)
        want = np.stack([np.broadcast_to(x, len(batch)) for x in entries], axis=-1).reshape((len(batch),) + shape)
        assert np.max(np.abs(closed - want)) <= ORACLE_TOL
