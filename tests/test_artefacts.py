"""Byte pins of what `multistep train`, `evaluate` and `compare` write.

Each strategy is trained through `cli.main` at one tiny fixed config on a
`synth-data` series, and the sha256 of its `model.json`, `.config.json`
and `.log.json` is compared with the digest recorded here. Each trained
model is then evaluated on the same series, and the sha256 of its report
and `--curves` CSV is pinned, as are the `.json` and `.txt` of one
`compare` over all eight reports. A refactor must leave every digest
unchanged. The nets are small enough that their rollouts stay serial and
the digests do not depend on the BLAS thread count.

A change that legitimately alters these bytes (a new document key, a new
RNG order) updates the digests below and lists the old and new values
in CHANGES.md.
"""

import hashlib
import json

import pytest

from multistep import cli, pipeline

SECTIONS = {
    "dad": {"dad": {"n_steps": 3, "meta_iterations": 2, "inner_epochs": 1}},
    "cdad": {"dad": {"n_steps": 3, "meta_iterations": 2, "inner_epochs": 1}},
    "multi-noise": {"noise": {"sigma": 0.05}},
    "multi-cgan": {"cgan": {"noise_dim": 2, "epochs": 2, "batch_size": 32}},
}

DIGESTS = {
    "recursive": [
        "19e67d1ee0d5c0edabde6fa4475db4381bba659ea67344c1771d3381a7eb062e",
        "615bebd9577d623a2b196e564e7c3ff73b2dbb830488f70c9084d5a967d8ac90",
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ],
    "dad": [
        "c942fe4c4c516c7a897c32d735812f5f35a204ad83e9c8f1baba89a33985da0f",
        "f35c307028624ab6cf0092ca32ade14e18a4da4862bfc33ac5d90b3490204515",
        "0c177e2f4f8ce6c408d35e80635af1791ee21f1fd98ad03da2fb26a70053c635",
    ],
    "cdad": [
        "3b96037c51d106cf5ea853d2e47fd25608ea88142195bec14b8527938006d68a",
        "a193a2dc6fba5ac29f070ab08adb51902cfec93eaf2c5492a79fb188cc92fc7b",
        "4c129543251566216a38abad1dadfd8b41532d0d7c375ccf2e8f0682fbf19d60",
    ],
    "direct": [
        "b8a554a219f9b6ed5728390842850c765f19321923fc813e3939ce93259a6ad6",
        "1f1546b5b8d43d3623c2aafede646e0e803465167796f458517dfa29cccc39ae",
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ],
    "hybrid": [
        "46f06b039e47dfc9b3adcb0b499f9fa9f636b3e7e9bf69fd7b9a1279687316a6",
        "597415db4a38fbf784ee6743f7df22bddca1b9830cb32dc662d3f41dfe97fb55",
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ],
    "multi": [
        "c39ae1fea5df4f620fa43b20ea40d35c98bd1b08e8aab5fd95103cc95b1b6a40",
        "78293337b38d205a0737ff2ee7932170cb84927f638a9f1041066b5f396b9188",
        "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
    ],
    "multi-noise": [
        "a3f9e38345be8b5cb701673f8fd697b65544b8ff82680afbf9aedccb3675953d",
        "d3813b96917ae18f26fad2950c69de622183121d7f58a2f8b3e9258080e387a4",
        "8fb65fbf24b7a9fffac7a393dda13a1b190f7643e9754a609234c7d282709fa8",
    ],
    "multi-cgan": [
        "cf96d3766347166de5a4db922d0506ac2ccd41f1affab7e6a73915ceae75f475",
        "3f5be4af16a45b499fbcc29769243c74b53bcc480e6ca6151aaea9f34c980972",
        "66559bdc0013ed08fbe04c5963c380d9912b61c54e38be6510b45787a934611e",
    ],
}


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("pin") / "series.csv"
    assert cli.main(["synth-data", "--points", "240", "--seed", "3", "--output", str(path)]) == 0
    return path


def config(strategy: str) -> dict:
    # 240 points at 15 min from 2011-01-01: train to index 160, validate to 200
    return {
        "seed": 5,
        "data": {
            "p": 4,
            "q": 3,
            "split": {"train_end": "2011-01-02T16:00:00", "val_end": "2011-01-03T02:00:00"},
        },
        "model": {
            "strategy": strategy,
            "hidden_layers": 2,
            "hidden_units": 6,
            "dropout": 0.1,
            "train": {"epochs": 2, "batch_size": 16},
        },
        **SECTIONS.get(strategy, {}),
    }


def digests(tmp_path, series_csv, strategy: str) -> list[str]:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config(strategy)))
    out = tmp_path / "model.json"
    argv = ["train", "--config", str(cfg), "--data", str(series_csv), "--out", str(out)]
    assert cli.main(argv) == 0
    return [hashlib.sha256((tmp_path / f"model.json{suffix}").read_bytes()).hexdigest()
            for suffix in ("", ".config.json", ".log.json")]


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_train_artefacts_are_pinned(tmp_path, series_csv, strategy):
    assert digests(tmp_path, series_csv, strategy) == DIGESTS[strategy]


EVALUATE_DIGESTS = {  # strategy -> [report, curves]
    "recursive": [
        "8be099164c00a4b0bd072042b2bae4834ef35a0ab4e09a779fdee01f899b1e76",
        "c9174ddf604f43ca6edf3fff62cdb452668551121c86f2d7fa1a91756b37717c",
    ],
    "dad": [
        "e14587abd95429cf6c97c9d5b27e2ed1076f72cc25f8946b001a0e995129da1d",
        "03bce63984269912a3b0d4aa1ba6d24ec340a197e54a2c0e4f04dee7104e1f7b",
    ],
    "cdad": [
        "3c644b1edeeef25921df8947c61d5a68dd42d18138c1e9ee34c1fc8ff6c1b7d4",
        "1b0163bf04e8762cb0c4d1b01b353668a28fa54e869f5c4c32303db3f1bfefb4",
    ],
    "direct": [
        "01ec451e8a3403af9d076cc127a1a42e6348e12a7a545dfe1d0c288e5ae9865a",
        "d2d6e68c3b902b9f63d4582d3814e0fe046e19d0b49ccfaaf789d430c2cc6bea",
    ],
    "hybrid": [
        "336c03260616a58db9caf51f33ca87d326b7688363fe23e5e28ca00eb798eefa",
        "a62bc17f7b56664f806cd156f371c20d507a883349b342668bd9d60ce7121164",
    ],
    "multi": [
        "52a9a7a5ccd894c4dcb0bdb94fbf74addf877f9d69c145d1d1e7f5e14c197607",
        "f95b76b75b848b27071b0e140995712bf24609b35e0d98c6108c3e3d6956ce34",
    ],
    "multi-noise": [
        "d4be27c836cb5b0f6be260c2e7616be89927dddf1f95ed6d2af4a7f356f62c2c",
        "00a5c668ffbf3e8c9c0f53aa0f969be3a57a48852dc6559b565ee279162fd43f",
    ],
    "multi-cgan": [
        "aa0ddfb45e551e0e11f0bcd87802edf40ed29d1292e4b1c9962fd1299f6809aa",
        "4e15fd49e994efe1ab38c79624930a79ce31950bdded6e4c4e89d0727b3515aa",
    ],
}
COMPARE_DIGESTS = [  # .json, .txt
    "1d5e3bee19f72ef6c43ba2ccf12e255d03e79d72ae45c665b593b39c0208b5f1",
    "a543987b47c9d3a9bbbe0b97924404cea1c3f3582e054126ce6f399cac23eb5a",
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def reports(tmp_path_factory, series_csv):
    """{strategy: (report path, curves path)} of every strategy's evaluated model."""
    out = {}
    for strategy in pipeline.STRATEGIES:
        work = tmp_path_factory.mktemp(strategy)
        digests(work, series_csv, strategy)
        report, curves = work / "report.json", work / "curves.csv"
        argv = ["evaluate", "--model", str(work / "model.json"), "--data", str(series_csv),
                "--report", str(report), "--curves", str(curves)]
        assert cli.main(argv) == 0
        out[strategy] = report, curves
    return out


@pytest.mark.parametrize("strategy", pipeline.STRATEGIES)
def test_evaluate_artefacts_are_pinned(reports, strategy):
    assert [sha256(path) for path in reports[strategy]] == EVALUATE_DIGESTS[strategy]


def test_compare_artefacts_are_pinned(tmp_path, reports):
    out = tmp_path / "cmp"
    argv = ["compare", "--reports", *(str(reports[s][0]) for s in pipeline.STRATEGIES),
            "--baseline", "recursive", "--out", str(out)]
    assert cli.main(argv) == 0
    assert [sha256(tmp_path / f"cmp{suffix}") for suffix in (".json", ".txt")] == COMPARE_DIGESTS
