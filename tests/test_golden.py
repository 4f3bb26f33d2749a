"""Golden digests: the CLI's outputs on small pinned instances, byte for byte.

`generate` + `run` on a 2-domain, 12-node config (seed 11, horizon 1500),
once with the default link bandwidth and once with bandwidth U[20, 60] so
that routes contend, for every strategy; the SHA-256 of each output file is
pinned.  A refactor that claims to keep behaviour must keep these digests.

Two more cases run `stec-iot` on the default 120-node `GeneratorConfig`
(seed 0, horizon 300), once as it stands and once with bandwidth U[20, 60],
so that the swarm's evaluation path is pinned at the paper's scale in both
regimes.  Only the second makes routes fail over to the breadth-first
search at that scale.

`compare`'s five tables are pinned on the same 12-node config, in both of its
modes: an instance generated per seed, and one fixed instance for all seeds.
"""

import hashlib
import json

import pytest

from secvne.cli import main

BASE_CONFIG = {
    "seed": 11,
    "domain_count": 2,
    "node_count": 12,
    "cd_size_range": [1, 2],
    "vnr_node_range": [2, 4],
    "vnr_arrival_rate": 0.05,
    "vnr_mean_lifetime": 300.0,
}
REGIMES = {
    "default": BASE_CONFIG,
    "bw-bound": {**BASE_CONFIG, "substrate_bw_range": [20, 60]},
}
HORIZON = "1500"
OUTPUTS = ("trace.jsonl", "windows.csv", "cumulative.csv")

# (regime, strategy) -> SHA-256 of (trace.jsonl, windows.csv, cumulative.csv)
GOLDEN = {
    ("default", "stec-iot"): (
        "784314fbb56b6898dd7d9ee3d8dd2b708ecd5a373c72bd7b9f8648d77b9ed575",
        "de376585c0b48fa53d93960ac2ad4ed7886068e483f6584eef82c948e02f95cf",
        "f237f2d4f854312d24445c87379e8df0a9b70241c4e117021fc6615e929200bc"),
    ("default", "greedy"): (
        "f1bcf92abdeab40c712008eb0f6f0fadfc7ead6156aee1831dd1a36f8075b882",
        "057db8238152e71cded261908219138becbef1ffc8871f258fec7da71657fa9e",
        "31a9278da5ede45a150ad515e9b99ed1f25c4e91f8d1ef2e58b55bfcae4499ca"),
    ("default", "random"): (
        "e4d9db356b53ce474d1a17ca33de35794f8021d395fe949012796106d462e7be",
        "99ab747b7919b6bb5782d57c948b054ed263cd54e171ddce49fd35b277107dae",
        "01915a4eda11e2c46bceab29cce283844bee6b2e41fcee090cb368d9b8e6eebd"),
    ("bw-bound", "stec-iot"): (
        "784314fbb56b6898dd7d9ee3d8dd2b708ecd5a373c72bd7b9f8648d77b9ed575",
        "de376585c0b48fa53d93960ac2ad4ed7886068e483f6584eef82c948e02f95cf",
        "f237f2d4f854312d24445c87379e8df0a9b70241c4e117021fc6615e929200bc"),
    ("bw-bound", "greedy"): (
        "37c09c73726b34d017f00a4c687118346c1ac31d76daeba30b274f98ef6ef4d0",
        "4970e3a9d5fe3283a4f98e76c21775e650f7cfc8980d84a2ff8edb735735f1bb",
        "0eb28ed9e2e3c7623e8ff9cb0173cd9a5664a968fc489be7230b389de12feb97"),
    ("bw-bound", "random"): (
        "dd73e509b959bf6ac6871b5a8d42bcb4fc5a60ce728b0b583f6b9f9a6f556f8c",
        "e67bb6bd3c53774245f0eaa07b1df43e70a3c95cd717c41fefa4fbc727032e0f",
        "a927e8aafb477bfaa068a6e606415eda044dfa627f1eeec17e08580ca2fae3e4"),
}


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for regime, cfg in REGIMES.items():
        config = root / f"{regime}.json"
        config.write_text(json.dumps(cfg))
        out[regime] = root / regime
        assert main(["generate", "--config", str(config), "--horizon", HORIZON,
                     "--out", str(out[regime])]) == 0
    return out


@pytest.mark.parametrize("regime,strategy", sorted(GOLDEN))
def test_outputs_match_pinned_digests(tmp_path, instances, regime, strategy):
    gen = instances[regime]
    out = tmp_path / "run"
    assert main(["run", "--substrate", str(gen / "substrate.json"),
                 "--workload", str(gen / "workload.jsonl"),
                 "--strategy", strategy, "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in OUTPUTS)
    assert digests == GOLDEN[(regime, strategy)]


# SHA-256 of (trace.jsonl, windows.csv, cumulative.csv) of `stec-iot` on the
# default generator config, seed 0, horizon 300.
PAPER_SCALE_GOLDEN = (
    "08cefb680e70073d745ebf4c9a078121399c07f4058c108be9a6dc2fddf9a0ca",
    "90e39f0d216466b07ee3ebc9a784457be8655ca3ddcfab6af5446df717f02c6b",
    "b8c073cc6f5dd4a1cb59a169416c32e4c789084cdd1175498f67adfae1946685")

# The same with link bandwidth U[20, 60].
PAPER_SCALE_BW_BOUND_GOLDEN = (
    "8d96ed23f99fdf2ae35f1f9f642fa2d78b18527612d1e9cd2f15729af8f80dca",
    "d7f432509b41f5c140e79d21c002fa9e3a7d64f519610ab0764891d869f4514d",
    "d62c354b88747a15241eb632b402e326abcebebdc326df56e9ae88a3431e00ec")


def paper_scale_digests(tmp_path, config: dict) -> tuple[str, ...]:
    gen = tmp_path / "gen"
    out = tmp_path / "run"
    args = ["generate", "--horizon", "300", "--out", str(gen)]
    if config:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "config.json")]
    assert main(args) == 0
    assert main(["run", "--substrate", str(gen / "substrate.json"),
                 "--workload", str(gen / "workload.jsonl"),
                 "--strategy", "stec-iot", "--out", str(out)]) == 0
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in OUTPUTS)


def test_paper_scale_stec_iot_matches_pinned_digests(tmp_path):
    assert paper_scale_digests(tmp_path, {}) == PAPER_SCALE_GOLDEN


def test_paper_scale_bw_bound_stec_iot_matches_pinned_digests(tmp_path):
    config = {"seed": 0, "substrate_bw_range": [20, 60]}
    assert paper_scale_digests(tmp_path, config) == PAPER_SCALE_BW_BOUND_GOLDEN


COMPARE_OUTPUTS = ("acceptance.csv", "avg_revenue.csv", "avg_cost.csv", "rc_ratio.csv",
                   "summary.csv")
COMPARE_ARGS = ["--strategies", "stec-iot,greedy,random", "--seeds", "1,2",
                "--horizon", "1200", "--window", "200"]

# mode -> SHA-256 of `compare`'s tables (COMPARE_OUTPUTS) for all three
# strategies, seeds 1 and 2, horizon 1200, window 200 on the default regime:
# "config" generates an instance per seed from BASE_CONFIG, "fixed" runs every
# seed on the instance generated above (--substrate/--workload).
COMPARE_GOLDEN = {
    "config": (
        "44ec0db9da0942173723e05066656842f1252667c86ccb6971eb013d5c0e6809",
        "583dce3f407edb410b1f256184e57df0bb7189ec21ea678d7f8005f0632ec54c",
        "50c328ca1abfb616a12b6e84b1b08d011be9f998801632fc90da1d7fcc42e741",
        "e331c53206c0696bdc03641557683f09b9184d80095190ba8f5a418c69f5e6d1",
        "c92b51d494fa77b1b3ec2bb1148640d15cb29bf69d4beea6c3678f812e3be299"),
    "fixed": (
        "42d878a77a79a8a2b9383c52c7f905e8a7c81705eee93b4ba1faa41c917ef7d1",
        "b9dd090efe067f15902a4000da144ba1c8ad4294e05c1bfbc83c9f1085b7833d",
        "2468dbe450e19b1361f60b95a626e4317e00d022173cf76ed6ba036180b1be56",
        "549f31aee7a75c1911ecbcadc91254e6b90b5ab214f96385becf8aa0c7300ea1",
        "387996c6d1fe26b2c805b3f6c697189928b68ddceafad92138d50ed6c2d1ac54"),
}


@pytest.mark.parametrize("mode", sorted(COMPARE_GOLDEN))
def test_compare_tables_match_pinned_digests(tmp_path, instances, mode):
    if mode == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(BASE_CONFIG))
        source = ["--config", str(config)]
    else:
        gen = instances["default"]
        source = ["--substrate", str(gen / "substrate.json"),
                  "--workload", str(gen / "workload.jsonl")]
    out = tmp_path / "compare"
    assert main(["compare", *source, *COMPARE_ARGS, "--out", str(out)]) == 0
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in COMPARE_OUTPUTS)
    assert digests == COMPARE_GOLDEN[mode]
