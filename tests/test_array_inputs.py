"""Every public function that reads an array rejects one numpy cannot read, or an empty one.

Each goes through the one reader, ``states._read_array``, so a ragged list,
text, a dict or an empty list raises ``DomainError`` (or a subclass), never
numpy's bare ``ValueError`` or ``TypeError``.
"""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from mubsic import (
    DensityMatrix,
    DomainError,
    ProbDist,
    alpha_log,
    distort,
    from_bloch,
    index_of_coincidence,
    kron,
    load_fiducial,
    max_prob_bound,
    mub_minentropy_bound,
    mub_renyi_bound,
    mub_set,
    mub_tsallis_bound,
    orthonormal_basis,
    povm,
    random_mixed,
    renyi,
    separable_bound,
    sic_from_fiducial,
    sic_minentropy_bound,
    sic_povm,
    sic_renyi_bound,
    sic_tsallis_bound,
    simple_bounds,
    symmetrized,
    tsallis,
    weyl_heisenberg_orbit,
)

BAD_ARRAYS = {
    "ragged": [[0.5, 0.5], [1.0]],
    "text": "not an array",
    "dict": {"re": [1.0, 0.0]},
    "empty": [],
}


def _load_fiducial(values):
    """load_fiducial of a d = 2 file whose re and im are ``values``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fiducial.json"
        path.write_text(json.dumps({"dim": 2, "re": values, "im": values}))
        return load_fiducial(path)


# each call passes its one argument as the array the function reads
READERS = {
    "DensityMatrix": DensityMatrix,
    "ProbDist": ProbDist,
    "renyi": lambda x: renyi(x, 2),
    "tsallis": lambda x: tsallis(x, 2),
    "symmetrized": lambda x: symmetrized(x, 2),
    "index_of_coincidence": index_of_coincidence,
    "distort": lambda x: distort(x, 0.5),
    "simple_bounds": lambda x: simple_bounds(x, 2, 2),
    "alpha_log": lambda x: alpha_log(x, 2),
    "max_prob_bound": lambda x: max_prob_bound(2, x),
    "mub_tsallis_bound": lambda x: mub_tsallis_bound(2, 3, 2, x),
    "mub_renyi_bound": lambda x: mub_renyi_bound(2, 3, 2, x),
    "mub_minentropy_bound": lambda x: mub_minentropy_bound(2, 3, x),
    "sic_tsallis_bound": lambda x: sic_tsallis_bound(2, 2, x),
    "sic_renyi_bound": lambda x: sic_renyi_bound(2, 2, x),
    "sic_minentropy_bound": lambda x: sic_minentropy_bound(2, x),
    "separable_bound-a": lambda x: separable_bound(2, x, 1.0),
    "separable_bound-b": lambda x: separable_bound(2, 1.0, x),
    "orthonormal_basis": orthonormal_basis,
    "mub_set": lambda x: mub_set([np.eye(2), x]),
    "povm": povm,
    "sic_povm": sic_povm,
    "sic_from_fiducial": lambda x: sic_from_fiducial(2, x),
    "weyl_heisenberg_orbit": weyl_heisenberg_orbit,
    "load_fiducial": _load_fiducial,
    "kron-a": lambda x: kron(x, np.eye(2)),
    "kron-b": lambda x: kron(np.eye(2), x),
    "from_bloch": from_bloch,
    "random_mixed-normals": lambda x: random_mixed(2, 1, normals=x),
}


@pytest.mark.parametrize("bad", BAD_ARRAYS.values(), ids=BAD_ARRAYS.keys())
@pytest.mark.parametrize("call", READERS.values(), ids=READERS.keys())
def test_an_unreadable_or_empty_array_raises_domain_error(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[1.0], [1.0, 2.0]], "^probability is not a numeric array: setting an array element"),
        ("text", "^probability is not a numeric array: could not convert string to float"),
        ({"p": 1.0}, "^probability is not a numeric array: float\\(\\) argument must be"),
        ([], r"^empty probability array, shape \(0,\)$"),
    ],
)
def test_the_reader_names_what_it_read(bad, message):
    with pytest.raises(DomainError, match=message):
        ProbDist(bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DensityMatrix(None), "^density matrix has a non-finite entry$"),
        (lambda: DensityMatrix([[]]), r"^empty density matrix array, shape \(1, 0\)$"),
        (lambda: from_bloch([]), r"^empty Bloch vector array, shape \(0,\)$"),
        (lambda: weyl_heisenberg_orbit([]), r"^empty measurement input array, shape \(0,\)$"),
        (lambda: _load_fiducial([]), r"^empty measurement input array, shape \(0,\)$"),
        (lambda: kron([], np.eye(2)), r"^empty kron operand array, shape \(0,\)$"),
        (lambda: kron(np.eye(2), "x"), "^kron operand is not a numeric array: "),
        (lambda: random_mixed(2, 1, normals=[]), r"^empty normals array, shape \(0,\)$"),
        (lambda: random_mixed(2, 1, normals="x"), "^normals is not a numeric array: "),
        (
            lambda: random_mixed(2, 1, normals=np.full((2, 2, 2), np.nan)),
            "^normals has a non-finite entry$",
        ),
    ],
)
def test_changed_messages(call, message):
    with pytest.raises(DomainError, match=message):
        call()
