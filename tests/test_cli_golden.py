"""Golden CLI outputs: sha256 of stdout and the exit code for fixed invocations.

The hashes pin ``qgaudin`` output byte for byte, so a refactor that changes
any printed digit (including the order of float operations) fails here.
The two runs with operator suites use their default degrees, the
differential-order bounds of ``diffops`` (3 for the commutator suites, 1 for
descent and the symbol pairing), so they pin those degrees and each line's
``complete`` field.  ``sample --mu`` pins the exact explicit-pencil sampler:
one chord step from the pencil's seed point per trial.
"""

import hashlib

import pytest

from quadric_gaudin.cli import main

GOLDEN = [
    ("sample --n 6 --trials 3 --seed 1", 0, "ee46e60f80bc409bd15def95b0931e191edff2f4f9cfa6f92b0f61f7cded4f55"),
    ("sample --mu 0,1,2,3,4 --trials 2 --seed 8", 0, "93fa139e0ed19295df9564eb5bcd827240b50f3ad29da8ec1d0258241c9ee6c6"),
    ("sample --n 7 --trials 2 --seed 4 --mode float", 0, "f47e11114f8eed217542acf7f984e300344e4a0695c78b53a823624f76bf779b"),
    ("verify --n 5 --trials 3 --seed 0 --skip-operators", 0, "dbc57226ba1dedc739f42c546b1c9cc1b0072413ae6bc1509e5a19f841a9c3e8"),
    ("verify --n 7 --trials 2 --seed 9 --skip-operators", 0, "cd7bacc26cfae03159799a8b057b79f98e524018afdd4e2d5132ed9664ab307b"),
    ("verify --n 6 --trials 3 --seed 2 --mode float --skip-operators", 0, "dbc57226ba1dedc739f42c546b1c9cc1b0072413ae6bc1509e5a19f841a9c3e8"),
    ("verify --n 5 --trials 1 --seed 3 --skip-operators --inject-fault delta-sign", 2, "4d2f92836a293df0425d6198f455839352657386691b9722cdf2b2c380332407"),
    ("verify --n 5 --trials 1 --seed 0", 0, "c4940d190aab66b2c116339aeab1c52676bd62aa89b935a2f498e483d9f1c7b7"),
    ("classify --n 5 --trials 6 --seed 11", 0, "a0bc7e1fc5b9090d6fd15cfea4e52daa37efbb1b4cb56ff52677926575ebe155"),
    ("classify --n 7 --trials 3 --seed 2", 0, "fadcf52cdfb3eb66ed6efb3a60773d40192f017cd1c7d9b9fe95df8f077e8d2a"),
    ("diffops-verify --n 5", 0, "5f79df90fe01c74402c5543a72afdf4f032143b26e1fc726b250a4e601164954"),
    ("orthomodel-verify --n 5 --trials 2 --seed 6", 0, "107895a7cccea30f9823c202559cf8418060047bd6b782ec448f7410768ac60e"),
    ("orthomodel-verify --n 6 --trials 2 --seed 6 --mode float", 0, "2122baa7022db0515b76f23cd2b24eafdbb9c8b4d462ae16aefd60ac5603e770"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_stdout_matches_golden(capsys, argv, code, digest):
    got = main(argv.split())
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
