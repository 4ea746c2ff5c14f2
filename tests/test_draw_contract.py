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

Draw contract 4 (0.4.0) moved the ``simulate``, ``wald`` and
``experiment`` records and left the ``martingale`` ones as they were.
The ``experiment`` JSON record holds only the ensemble's summary, which
at seed 2**64 - 1 came out the same under both contracts, so the
``experiment_csv`` records (one row per path) pin the paths themselves.
Draw contract 5 (0.5.0) put compound-Poisson paths on the walk's two
streams, so it moved only the ``martingale`` records.
"""

import hashlib

import pytest

import driftlab
from driftlab.cli import main

VERSION = "0.5.0"

UNIT = "jumps: {up: {family: constant1}, down: {family: constant1}}\n"
GAMMA_EXP = "jumps: {up: {family: gamma_mean1, k: 2.0}, down: {family: exponential_mean1}}\n"

# one small record per kind of output the draw contract reaches
CONFIGS = {
    "simulate": "command: simulate\nfield: {family: critical_lamperti, c: 0.5}\n" + GAMMA_EXP
                + "simulate: {horizon: 40.0}\n",
    # the one family whose closure takes powers: numpy's, as its phi does
    "simulate_power_law": "command: simulate\nfield: {family: power_law, rho: 0.1, alpha: -0.5, beta: 0.25}\n"
                          + UNIT + "simulate: {horizon: 200.0}\n",
    "wald": "command: check\nfield: {family: mean_reverting, kappa: 0.2}\n" + GAMMA_EXP
            + "check: {kind: wald, sigma: 2.0, n_paths: 130}\n",
    "martingale": "command: check\n" + GAMMA_EXP
                  + "check: {kind: martingale, rate: 0.5, tau: 6.0, horizon: 9.0, n_paths: 130}\n",
    "experiment": "command: experiment\nworkers: 1\nfield: {family: critical_lamperti, c: 0.5}\n"
                  + UNIT + "experiment: {n_paths: 30, horizon: 60.0, level: 3.0, band: 1.0}\n",
}
CONFIGS["experiment_csv"] = CONFIGS["experiment"] + "output: {format: csv}\n"
# The chain records take no draws, but their bytes pin the cell averages,
# the escape series and the balance solve bit for bit.  The first series
# tail crosses the window edge inside a piece and a block edge after it;
# the bilateral one runs the mirrored tail past its window too.
TABLE = ("{family: tabulated, x_grid: [0.0, 5.0, 20.0, 100.0], t_grid: [0.0, 1000.0, 20000.0], "
         "values: [[0.2, 0.15, 0.1], [0.1, 0.08, 0.05], [0.04, 0.03, 0.02], [0.01, 0.01, 0.005]]}")
CONFIGS.update({
    "bd_oracle_tail": "command: bd-oracle\nfield: {family: critical_lamperti, c: 2.0}\n"
                      f"bd-oracle: {{n_max: 3000, tail_extension: {2**17 + 5000}}}\n",
    "bd_oracle_bilateral": "command: bd-oracle\n"
                           "field: {family: power_law, rho: 0.1, alpha: -0.5, beta: 0.25}\n"
                           "bd-oracle: {n_min: -300, n_max: 300, n0: 2, bilateral: true, "
                           "criterion: both, tail_extension: 50000}\n",
    "bd_oracle_ratio": "command: bd-oracle\n"
                       "bd-oracle: {source: ratio, c: 1.5, n_max: 2000, tail_extension: 30000}\n",
    "bd_oracle_csv": f"command: bd-oracle\nfield: {TABLE}\nbd-oracle: {{n_max: 400}}\n"
                     "output: {format: csv}\n",
    "balance": "command: check\nfield: {family: mean_reverting, kappa: 0.2}\n" + UNIT
               + "check: {kind: balance, total_time: 10000.0, window_min: -10, window_max: 10}\n",
})
SEEDS = (7, 2**64 - 1)

DIGESTS = {
    ("simulate", 7): "4f69de9e6307fee81ec7058f871bfbc5be36e84dc07efb31430f82b2cd8b8108",
    ("simulate", 2**64 - 1): "26e848f912de7224ea4821192fb3f904a3e81c58953efdf274f21a37eeca4127",
    ("simulate_power_law", 7): "660cb01a53a5b213d093aa97f3a9edfb6de219e7114fb9643d611f1e541cb7f3",
    ("simulate_power_law", 2**64 - 1): "d0d3e8878d4a66c52a9c8540da0f8fab59cd82c9da6e628fedc1d379b601aefb",
    ("wald", 7): "639bc815a4fba85d0182544971f378e3f177b0938f1f14c7c3bcfc4c138a7627",
    ("wald", 2**64 - 1): "620143655be981872652e5262f689806b5f098a8ad08790bff884c8acb12d239",
    ("martingale", 7): "dbd6470fa6123b1a4df2a1751de9287ea30d08c8f7fdf6180dac1cd84051c754",
    ("martingale", 2**64 - 1): "80dde26e9f6dcc6ced5110acfd8008c48b5452f779999befe7cc645bb8bea4fd",
    ("experiment", 7): "50a87ff1851ac5333a95fa9b70eb210ededfb316dbed7b84d5b693f7ccbaf564",
    ("experiment", 2**64 - 1): "161fba803c2657de5b99bdbd82fd51b1abdc31d6feb59b5229c9dff31c8cda4f",
    ("experiment_csv", 7): "70c10b4b23240288712afcea84122b8e41b513638a0370b5762ab97c10f5fb8e",
    ("experiment_csv", 2**64 - 1): "8fba6f50c1498a16613872d46fa4d99fa424acbb759da300d03499fd1b3d47fe",
    ("bd_oracle_tail", 7): "0e6fff5db859a11d147d316512b18f741b8f06daef323c86aec79787533b96b4",
    ("bd_oracle_tail", 2**64 - 1): "fdefa25fd1c6f3adef17837eebb06bd72597e0958796d6a94e2de57d5c285538",
    ("bd_oracle_bilateral", 7): "82e8197273f73c60635548cffc7ed6f2ed23abe391391486de3c1df649016bab",
    ("bd_oracle_bilateral", 2**64 - 1): "17af97f65a05b601cb1df3c040796e2a502c3afc5e3a927f1594159a859a6868",
    ("bd_oracle_ratio", 7): "4c65ac3c6291752cc34da4113650613c6ada694ee9c1b15c2411e7392f5ac2dd",
    ("bd_oracle_ratio", 2**64 - 1): "5f2d5015dda5192b57c8ceb2da6c4b8bb437ff8577311b6cd03299672405907d",
    ("bd_oracle_csv", 7): "6f8f28a148fe1fe35d026cddce728d60204d949366404c02bbc6a8dc5aca70ab",
    ("bd_oracle_csv", 2**64 - 1): "6f8f28a148fe1fe35d026cddce728d60204d949366404c02bbc6a8dc5aca70ab",
    ("balance", 7): "ec39e7cfd1d3a8dbcc8ac07cda810ee73e6539ddff8d572ad220f089665c91cf",
    ("balance", 2**64 - 1): "3903fac6d00ba69ae7057b7e81445d5897d3ae9e831b94077783c1052189be32",
}


def masked_record(tmp_path, name: str, seed: int) -> bytes:
    cfg = tmp_path / f"{name}.yaml"
    csv = "format: csv" in CONFIGS[name]
    cfg.write_text(CONFIGS[name] + ("" if csv else "output: {format: json}\n"))
    out = tmp_path / f"{name}-{seed}.{'csv' if csv else 'json'}"
    assert main([str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    text = out.read_text()
    if csv:  # no path, version or run time in a CSV
        return text.encode()
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
