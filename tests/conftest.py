import numpy as np
import pytest

from heatfvp import DomainSpec, build_basis


def format_matrix(a) -> str:
    """Write a matrix in the text format `generator.parse_matrix` reads: a
    line with the dimension d, then d rows of 2d reals (re im re im ...)."""
    a = np.asarray(a, dtype=complex)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def basis16():
    return build_basis(DomainSpec("interval", (np.pi,), 16))


@pytest.fixture(scope="session")
def basis64():
    return build_basis(DomainSpec("interval", (np.pi,), 64))


@pytest.fixture(scope="session")
def basis_rect():
    return build_basis(DomainSpec("rectangle", (np.pi, np.pi), 4))
