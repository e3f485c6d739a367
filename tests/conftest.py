"""Shared test fixtures, high-precision oracles and report readers."""

import json
import sys
from pathlib import Path

# Allow running pytest from a fresh checkout without installing the package.
try:
    import rbkernel  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mpmath as mp
import numpy as np
import pytest

from rbkernel import NystromOperator

mp.mp.dps = 40


def mp_regular(m, r):
    """Oracle u_m(r) = r j_m(r) through mpmath's half-integer Bessel J."""
    r = mp.mpf(r)
    return r * mp.sqrt(mp.pi / (2 * r)) * mp.besselj(m + mp.mpf("0.5"), r)


def mp_irregular(m, r):
    """Oracle v_m(r) = r y_m(r) through mpmath's half-integer Bessel Y."""
    r = mp.mpf(r)
    return r * mp.sqrt(mp.pi / (2 * r)) * mp.bessely(m + mp.mpf("0.5"), r)


def mp_p(r):
    """Oracle for the closed form of p at 40 digits."""
    r = mp.mpf(r)
    return 1 - (3 + 3 * mp.cos(r) ** 2) / r**2 + 3 * mp.sin(2 * r) / r**3


def read_matrix(op):
    """What production reads of an operator: the kink-exact A, or the lower
    triangle of the Nystrom operator's D-scaled form S = D A D^-1 (it holds
    no dense A)."""
    return op.matrix if isinstance(op, NystromOperator) else np.tril(op.own_norm_form())


def csv_table(text):
    """Columns and rows of a CSV report; an empty cell reads as None."""
    header, *lines = text.splitlines()
    rows = [tuple(None if cell == "" else float(cell) for cell in line.split(","))
            for line in lines]
    return tuple(header.split(",")), rows


def json_table(text):
    """Columns and rows of a JSON report, an array of row objects."""
    objects = json.loads(text)
    columns = tuple(objects[0])
    return columns, [tuple(obj[name] for name in columns) for obj in objects]


@pytest.fixture(scope="session")
def reference_spec():
    from rbkernel import reference_spec

    return reference_spec()


@pytest.fixture(scope="session")
def root_r():
    """The first positive root of p, found once per session."""
    from rbkernel import find_root

    return find_root(2.0, 2.5, tol=1e-12).root
