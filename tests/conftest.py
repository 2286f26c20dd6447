import numpy as np
import pytest

from heatfvp import DomainSpec, build_basis
from heatfvp.generator import MatrixGenerator, random_elliptic, random_selfadjoint

JORDAN = [[1.0, 10.0], [0.0, 1.0]]


def format_matrix(a) -> str:
    """Write a matrix in the text format `generator.parse_matrix` reads: a
    line with the dimension d, then d rows of 2d reals (re im re im ...)."""
    a = np.asarray(a, dtype=complex)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def golden_generator(name):
    """The generator of a golden name: "jordan", "diag(a,b,...)" with
    complex entries, or "<elliptic|selfadjoint>-<dim>-<seed>"."""
    if name == "jordan":
        return MatrixGenerator(JORDAN)
    if name.startswith("diag("):
        return MatrixGenerator(np.diag([complex(x) for x in name[5:-1].split(",")]))
    kind, dim, seed = name.split("-")
    make = random_elliptic if kind == "elliptic" else random_selfadjoint
    return make(int(dim), seed=int(seed))


@pytest.fixture(scope="session")
def basis16():
    return build_basis(DomainSpec("interval", (np.pi,), 16))


@pytest.fixture(scope="session")
def basis64():
    return build_basis(DomainSpec("interval", (np.pi,), 64))


@pytest.fixture(scope="session")
def basis_rect():
    return build_basis(DomainSpec("rectangle", (np.pi, np.pi), 4))
