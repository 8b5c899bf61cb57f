"""Replay bytes pinned across versions.

Each config below runs two seeds into a fresh output directory, and every
`rounds_seed*.csv` and `summary.csv` it writes must hash to the SHA-256
held here. `test_replay_identical` checks that one version replays itself;
this test checks that a change to the code did not move any output. A
change that means to move outputs (a different CCE vertex, another duel,
a reordered sum) updates these digests and says in CHANGES.md which
outputs moved and why.

The digests were taken with numpy 2.4 on x86-64. numpy picks SIMD loops
and BLAS kernels by CPU, so another numpy build or CPU family may move
low bits without any change to this code.
"""

import hashlib
import os

import pytest

from duelbandit.harness import ExperimentConfig, run_experiment

CONFIGS = {
    "ccedb-condorcet5-diagnostic": {
        "algorithm": {"kind": "ccedb"},
        "environment": {"kind": "fixed", "fixture": "condorcet",
                        "k": 5, "margin": 0.4},
        "horizon": 300, "seeds": [0, 1], "diagnostic": True,
        "benchmark": {"q_star": "condorcet", "policy_count": 2},
    },
    # MinMaxDb plays the uniform marginal here with 0 descent iterations
    # (1 distinct marginal in 300 rounds on both seeds), so its bytes do not
    # depend on the forecasts: this pin covers the ledger and CSV path, not
    # the oracle; the two minmaxdb-finite3-ctx2* pins cover the oracle
    "minmaxdb-finite3-nash": {
        "algorithm": {"kind": "minmaxdb", "gamma": "auto",
                      "oracle": {"kind": "finite"}},
        "environment": {"kind": "finite_class", "k": 3, "n_contexts": 1,
                        "class_size": 16, "class_seed": 11},
        "horizon": 300, "seeds": [0, 1],
        "benchmark": {"q_star": "nash", "policy_count": 3},
    },
    "ccelindb-linear5": {
        "algorithm": {"kind": "ccelindb"},
        "environment": {"kind": "linear", "k": 5, "dim": 4,
                        "weight_seed": 5},
        "horizon": 300, "seeds": [0, 1],
        "benchmark": {"q_star": None, "policy_count": 0},
    },
    # most of this environment's draws are rescaled into [-1, 1]
    "ccelindb-linear4-rescale": {
        "algorithm": {"kind": "ccelindb"},
        "environment": {"kind": "linear", "k": 4, "dim": 8,
                        "weight_seed": 3},
        "horizon": 300, "seeds": [0, 1],
        "benchmark": {"q_star": None, "policy_count": 0},
    },
    # criterion 11's instance: the context switches, and after a switch
    # the inverse-gap descent iterates (23 rounds of the 2000)
    "minmaxdb-finite3-ctx2": {
        "algorithm": {"kind": "minmaxdb", "gamma": "auto",
                      "oracle": {"kind": "finite"}},
        "environment": {"kind": "finite_class", "k": 3, "n_contexts": 2,
                        "class_size": 8, "class_seed": 3},
        "horizon": 1000, "seeds": [0, 1],
        "benchmark": {"q_star": None, "policy_count": 2},
    },
    # two contexts over a class of 16: the descent iterates on many rounds
    # and, between them, the held marginal meets new forecasts unsolved
    "minmaxdb-finite3-ctx2-class16": {
        "algorithm": {"kind": "minmaxdb", "gamma": "auto",
                      "oracle": {"kind": "finite"}},
        "environment": {"kind": "finite_class", "k": 3, "n_contexts": 2,
                        "class_size": 16, "class_seed": 11},
        "horizon": 1000, "seeds": [0, 1],
        "benchmark": {"q_star": None, "policy_count": 2},
    },
    "minmaxdb-vaw-linear3": {
        "algorithm": {"kind": "minmaxdb", "gamma": "auto",
                      "oracle": {"kind": "vaw"}},
        "environment": {"kind": "linear", "k": 3, "dim": 2,
                        "weight_seed": 1},
        "horizon": 1500, "seeds": [0, 1],
        "benchmark": {"q_star": None, "policy_count": 2},
    },
}

DIGESTS = {
    "ccedb-condorcet5-diagnostic": {
        "rounds_seed0.csv": "bf49f739ab4cf141bd6d58304b5cef291f93bcf151e98a7cf9a28cfc664e7d4b",
        "rounds_seed1.csv": "b5f933cd4c5946b7b06d479faad093fde962c3f49353a4598f98d042490badf7",
        "summary.csv": "4b810124c603b99684067a2b9e601e38c9398431dd67fd7158937a99236395cd",
    },
    "ccelindb-linear5": {
        "rounds_seed0.csv": "a3a314106baf2e89474b34b11ca8ce16c4253ffe9d64a186445a8a05ef9ab0a3",
        "rounds_seed1.csv": "c7979e07a69095270014e3e9dc9abbbde082fee44a453986d7b71c837a8ee63c",
        "summary.csv": "34c98f3674a6d42f199e3179c021af267762d02775402ecf69d712dc96002acc",
    },
    "ccelindb-linear4-rescale": {
        "rounds_seed0.csv": "1ddee7efeb64649837310de906d38599e898a51b5adc8f6e7c5150cd872204a9",
        "rounds_seed1.csv": "f5ef1d166754ea6bbeacb3124f61620c6fe2d0b90ee7217d06d3d5fdca8805eb",
        "summary.csv": "9ef1b94675814e0f93e4e1df0bb22d0dee7b913fba40ec2375eb5622e110eb22",
    },
    "minmaxdb-finite3-nash": {
        "rounds_seed0.csv": "5c8f04292ebd2659cd8406caa6779edf93779f968d6a7326522c740c0d83d619",
        "rounds_seed1.csv": "219e831eaa4feac01826a69da8b0fd83a1b14304d73fb2a22e56fd600535a2ef",
        "summary.csv": "e0d4868a5dae143c89cbfa6df330d96deef9a8d8dc077ba7a700ca12b3ae4bad",
    },
    "minmaxdb-finite3-ctx2": {
        "rounds_seed0.csv": "3ee3955e67d22f50fd9198b5049466d5f50094791b4d4901cc17c6ced9df05e1",
        "rounds_seed1.csv": "b573c8172dfd27520771d7b520392b18941128f2ae7bd1b62b32db1df3f2ac64",
        "summary.csv": "e60ceb5ade079cf9f052ef658d2acdffa48bac9f548e362a73691350c0257de9",
    },
    "minmaxdb-finite3-ctx2-class16": {
        "rounds_seed0.csv": "5e34d98f8a8c64a4332c970d8c0a655cb4ce4222c7b6e0070ee9fcdeb42dc81e",
        "rounds_seed1.csv": "661cbb84e10d97f4bf844157257073707201337ea0900d4eb5747e18316bd8b7",
        "summary.csv": "7b0b5c4ea7b32568bb9c222793f96b43dec03752788272190695c05b72549e84",
    },
    "minmaxdb-vaw-linear3": {
        "rounds_seed0.csv": "f44a07cc0178a36872138702a6a7db99c4a01748bb4621390d429357abf90636",
        "rounds_seed1.csv": "d963e1a26e005a1fef8bd93dbe7cd938debcb77ecff67e7e5b16f8e48fa79baa",
        "summary.csv": "15669478fb94a0d3edfc935799ba76705486bd0890aad385073a19e848b0b31a",
    },
}


def csv_digests(raw: dict, out_dir: str) -> dict[str, str]:
    """Run `raw` into `out_dir`; SHA-256 of each CSV file it wrote."""
    run_experiment(ExperimentConfig.from_dict({**raw, "output_dir": out_dir}))
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("DUELBANDIT_THREADS", raising=False)
    assert csv_digests(CONFIGS[name], str(tmp_path)) == DIGESTS[name]
