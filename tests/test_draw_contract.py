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

The config block is part of the bytes too: dropping ``field.t_proxy``
moved all eight digests within 0.3.0, each record being the old one
without its ``"t_proxy"`` line.
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
    ("simulate", 7): "693f52dec40a93fd10a4f0bfb7928b9649d1d7717d44419c28bb73872b2c0d5f",
    ("simulate", 2**64 - 1): "b841eb83b8071ec3800e57a721a9ff1a50ea3434478f780f33010ae548c49f5d",
    ("wald", 7): "4bc6c04dea3d8fb3abd624058c08f07f1884dd6da34274e2196926dea0d7833c",
    ("wald", 2**64 - 1): "124352b4bdc120792822de674b7b6db640c8461e459e23a6193ed2f3c96101f3",
    ("martingale", 7): "58e8c6e40e91ec6f5d429914c9dfe7c087ef899efbc6b3aff143fa9d0285e209",
    ("martingale", 2**64 - 1): "97535b03aa116c210253c3019e3a69ffe974f059afb6455283a66d644c8eccf7",
    ("experiment", 7): "2c9ca3af24783d71a5047ee28cc7bc6a3fe4187a8d573e329fead57d646e249f",
    ("experiment", 2**64 - 1): "161fba803c2657de5b99bdbd82fd51b1abdc31d6feb59b5229c9dff31c8cda4f",
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
