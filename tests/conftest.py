"""Shared fixtures: the standard verification instance.

The standard instance lives on (0, 1) with n = 96, s = 0.4, p = 2,
V = 0.25 and the q = 3, f0 = 1 nonlinearity.  Eigenpair and certified
constants are session scoped because they are expensive relative to the
rest of the suite and every consumer treats them as read-only.
"""

import multiprocessing
import os

import pytest

from fracmp import (
    assemble_kernel,
    build_grid,
    certify_constants,
    first_eigenpair,
    make_nonlinearity,
    make_potential,
    make_problem,
)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")


@pytest.fixture(autouse=True)
def no_process_left_running():
    # a sweep's row processes end with the call that started them
    yield
    left = multiprocessing.active_children()
    assert not left, "processes left running: %r" % left


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture(scope="session")
def grid96():
    return build_grid(0.0, 1.0, 96)


@pytest.fixture(scope="session")
def kernel96(grid96):
    return assemble_kernel(grid96, 0.4, 2.0)


@pytest.fixture(scope="session")
def pot96(grid96):
    return make_potential(grid96, constant=0.25)


@pytest.fixture(scope="session")
def nl_f1():
    return make_nonlinearity(3.0, 1.0, 2.0, 0.4)


@pytest.fixture(scope="session")
def nl_f0():
    return make_nonlinearity(3.0, 0.0, 2.0, 0.4)


@pytest.fixture(scope="session")
def eig96(kernel96, grid96):
    return first_eigenpair(kernel96, grid96, 1e-9)


@pytest.fixture(scope="session")
def prob96(grid96, kernel96, pot96, nl_f1):
    # lambda = 0.5 sits inside the certified window of this instance
    return make_problem(grid96, kernel96, pot96, 0.5, nl_f1)


@pytest.fixture(scope="session")
def consts96(prob96, eig96):
    return certify_constants(prob96, eig96.phi1)
