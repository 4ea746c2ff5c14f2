"""Pinned digests of small CLI records: a tripwire for the draw contract.

A record's bytes follow from its config and seed through the draw
recipes, the path-seed derivation and the estimators' arithmetic, so a
change to any of them moves these digests.  A change that moves them on
purpose bumps ``driftlab.__version__``, sets ``VERSION`` below to it and
records the new digests (``python tests/test_draw_contract.py`` prints
them); one that moves them by accident fails here.  Each digest is the
sha256 of the record as written, with its output path and its version
masked.  Records carry no run time (the experiment's is left out of the
file), so nothing else needs masking.
"""

import hashlib

import pytest

import driftlab
from driftlab.cli import main

VERSION = "0.3.0"

UNIT = "jumps: {up: {family: constant1}, down: {family: constant1}}\n"
GAMMA_EXP = "jumps: {up: {family: gamma_mean1, k: 2.0}, down: {family: exponential_mean1}}\n"

# one small record per kind of output the draw contract reaches
CONFIGS = {
    "simulate": "command: simulate\nfield: {family: critical_lamperti, c: 0.5}\n" + GAMMA_EXP
                + "simulate: {horizon: 40.0}\n",
    "wald": "command: check\nfield: {family: mean_reverting, kappa: 0.2}\n" + GAMMA_EXP
            + "check: {kind: wald, sigma: 2.0, n_paths: 130}\n",
    "martingale": "command: check\n" + GAMMA_EXP
                  + "check: {kind: martingale, rate: 0.5, tau: 6.0, horizon: 9.0, n_paths: 130}\n",
    "experiment": "command: experiment\nworkers: 1\nfield: {family: critical_lamperti, c: 0.5}\n"
                  + UNIT + "experiment: {n_paths: 30, horizon: 60.0, level: 3.0, band: 1.0}\n",
}
SEEDS = (7, 2**64 - 1)

DIGESTS = {
    ("simulate", 7): "ea17e26d743c67bf00b77596926dc0f153f3722c89ec98b06f55ddec4ac6e8f2",
    ("simulate", 2**64 - 1): "1dc6e8e412bd13a4d4975d806c68a8f380a6555659773ce532dc540134fc05c4",
    ("wald", 7): "b01878bb50ed52be8cbcd9df57528759957e5de82b996f1023ac0623f9edd565",
    ("wald", 2**64 - 1): "5fbe86c611d167d7adf5ac8d7994ee08c850de346bdc6ed8ecfeab1009392c8c",
    ("martingale", 7): "6ec28ba7a573cdacdb5c920f6ccd8f51851ba1767f1dca83d13ca6e08a4a3158",
    ("martingale", 2**64 - 1): "f6435ab40436ce4e71600a65741e2644d7fc0a09b77f94988f515184a3a279a7",
    ("experiment", 7): "b2a1f2fc69fa7650ec70544762014429780274d55225d4d38abe057435d91823",
    ("experiment", 2**64 - 1): "715215b2f641647cd793e2fae59dea984355a0f00a8ad629a2a1d0506ce91ab3",
}


def masked_record(tmp_path, name: str, seed: int) -> bytes:
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(CONFIGS[name] + "output: {format: json}\n")
    out = tmp_path / f"{name}-{seed}.json"
    assert main([str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    text = out.read_text()
    assert "runtime" not in text
    for key, value in (("path", str(out)), ("version", driftlab.__version__)):
        field = f'"{key}": "{value}"'
        assert text.count(field) == 1
        text = text.replace(field, f'"{key}": "<{key}>"')
    return text.encode()


def test_table_version_is_the_package_version():
    # bumping the version without re-recording the digests, or the other
    # way round, fails here
    assert VERSION == driftlab.__version__


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CONFIGS)
def test_record_digest(tmp_path, name, seed):
    digest = hashlib.sha256(masked_record(tmp_path, name, seed)).hexdigest()
    assert digest == DIGESTS[name, seed]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        lines = [f'    ("{name}", {seed}): '
                 f'"{hashlib.sha256(masked_record(pathlib.Path(d), name, seed)).hexdigest()}",'
                 for name in CONFIGS for seed in SEEDS]
    print("DIGESTS = {", *lines, "}", sep="\n")
