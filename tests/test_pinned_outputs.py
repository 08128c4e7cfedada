"""Byte-exact outputs of the constructions and transforms, pinned.

The digests are sha256 of format_triff's text.  A change to how words are
built must leave every one of them as it is.
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trifference
from trifference.constructions import one_bounded, recursive_construction, triple_construction
from trifference.core import best_project, format_triff, project, prune


def digest(code) -> str:
    return hashlib.sha256(format_triff(code).encode()).hexdigest()


def affine_code(q: int, sigma_seed=None):
    """The code of `construct triple --q q`: the triple of the 1-bounded base."""
    return triple_construction(q, one_bounded(math.ceil((q * q + q) / 2)), sigma_seed=sigma_seed)


@pytest.mark.parametrize(
    "q,sigma_seed,want",
    [
        (5, None, "75286c53dc79edd2f53a95f1f5911e18461cf9efe5288bb307d7049937628498"),
        (5, 3, "2274de20f5da4ebde7a2b0dfc0458eed6af7e6f6163775f7345f417a077dbc37"),
        (7, None, "86e8e5bb81a88655a6380eddbfddfff1bb326425bc5be8ec1ff76968d29c8b7d"),
        (11, None, "d4cd923e198d958cc5bc13b21a1fc4dc7898f653bc56e24a0c6ee005740bec3f"),
    ],
)
def test_triple_construction(q, sigma_seed, want):
    assert digest(affine_code(q, sigma_seed)) == want


def test_recursive_construction():
    want = "480b8c8ac5a25cae46c466fe03d7d8d657b93b76cc68558d90bbb68ffbac3a13"
    assert digest(recursive_construction(2, 100)) == want


@pytest.mark.parametrize(
    "q,best,shape,want",
    [
        (5, 4, (44, 12, 2), "3d5faee7cee0b8a293710b1937929c121e95c32f1e07804d77a2ded8ab1a4633"),
        (7, 6, (83, 16, 2), "ffc96cbe65eee530d667a3750658cd6b3be43af5a48813398a88e3af062efdc6"),
    ],
)
def test_best_projection(q, best, shape, want):
    code = affine_code(q)
    assert best_project(code) == best
    projected = project(code, best)
    assert (projected.n, len(projected), projected.r_bound) == shape
    assert digest(projected) == want


def test_prune_chain():
    chain = prune(affine_code(5))
    assert [len(c) for c in chain] == [
        150, 150, 144, 138, 132, 120, 108, 96, 84, 72, 60, 48, 36, 24, 18, 12,
        12, 11, 10, 9, 8, 8, 7, 5, 5, 5, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2,
        2, 2, 2, 2, 2, 2, 2, 2,
    ]
    assert chain[-1].strings() == (
        "000000000000211000000021111111000000211111111",
        "111111111111112000000021111111111111111111120",
    )


@pytest.mark.parametrize(
    "argv",
    [["construct", "triple", "--q", "7"], ["search", "max", "--n", "4"]],
    ids=["construct-triple-7", "search-max-4"],
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    # words hash as their strings, and string hashes change with
    # PYTHONHASHSEED, so no output may follow the order of a set or dict of
    # words
    src = str(Path(trifference.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "trifference.cli", *argv],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            capture_output=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] and outputs[0] == outputs[1]
