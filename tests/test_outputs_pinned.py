"""Outputs unchanged: digests of what the CLI writes, and stored ablation tables.

``simulate -> track (every motion) -> eval`` on three 600-frame scenarios
with the benchmark's band-switch/blackout mix, and ``ablate --suites 3``,
must write the very bytes pinned here, and so must ``gradcheck``'s stdout
for four seeds, with and without ``--inject-bug``.  Eight suites spread over
``bench/reference/ablate.json`` must reproduce their stored tables.

The digests hold for one numpy version and BLAS build (float summation
order can differ between builds); a failure names both.  A change meant to
alter outputs updates ``PINNED`` in the same change and says why.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from xmtrack.cli import main
from xmtrack.io import save_scenario
from xmtrack.sim import MOTION_PRESETS, Scenario, run_ablation_suite

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"
PIPELINE_INDICES = (0, 3, 5)
REPLAYED_SUITES = range(7, 128, 16)


def mixed_scenario(index: int, frames: int = 600) -> Scenario:
    """A turning target; RGB/NIR segments of 25 frames, two 18-frame blackouts per 150."""
    rate = 0.025 if index % 2 == 0 else -0.025
    schedule = [
        (start, min(frames, start + 25), "rgb" if k % 2 == 0 else "nir")
        for k, start in enumerate(range(0, frames, 25))
    ]
    windows = [
        (block + s, block + e)
        for block in range(0, frames, 150)
        for s, e in ((55, 73), (110, 128))
        if block + e <= frames
    ]
    return Scenario(
        name=f"pipeline-{index}",
        frames=frames,
        initial_box=(256.0 - math.copysign(160.0, rate), 256.0, 34.0, 34.0),
        velocity=(0.0, -4.0),
        turn_rate=rate,
        modality_schedule=schedule,
        invalid_windows=windows,
        sigma=2.0,
        switch_radius=2,
        switch_noise_boost=8.0,
        seed=1000 + index,
    )


def written_digests(workdir: Path) -> dict[str, str]:
    """SHA-256 of every file each CLI round writes, keyed by round and file name."""
    digests = {}

    def cli(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    for index in PIPELINE_INDICES:
        out = workdir / f"pipeline-{index}"
        out.mkdir()
        save_scenario(out / "scenario.json", mixed_scenario(index))
        cli("simulate", out / "scenario.json", "--out", out / "seq.jsonl")
        for motion in MOTION_PRESETS:
            cli("track", out / "seq.jsonl", "--out", out / f"run-{motion}.json", "--motion", motion)
            cli("eval", out / f"run-{motion}.json", "--out", out / f"metrics-{motion}")
    cli("ablate", "--suites", "3", "--out", workdir / "ablate.json")
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            digests[path.relative_to(workdir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


PINNED = {
    "ablate.json": "0a742c3c0f99597727c893f6007fd91706ba54108ec9dd8ea5bddc281f426820",
    "pipeline-0/metrics-ctp.csv": "e0ec86ba73e1eb7ac7233cbe71302ba593e1d7dec2ac86f2982b5e40e09269b7",
    "pipeline-0/metrics-ctp.json": "4213cbab2b1ac9fadbdf937b2be921fec8ea74876b8d47a8b0e33c98babfb913",
    "pipeline-0/metrics-ekf.csv": "1028c71b2d1e61622d46e1d3f7b336b8fcaac41d00453c2369d205d1e5de784e",
    "pipeline-0/metrics-ekf.json": "a8871d63ebe9445a5ecf7392cbbe6b820e3c8f4f4ccabf72563cd09d85555f81",
    "pipeline-0/metrics-kf.csv": "98270ba0f9d059f1c963de5ebb041f30d2e4139503e64f65a1d1377ee21c81b0",
    "pipeline-0/metrics-kf.json": "ef9b1830e3e5f4014d10b6c2d90832b9ceeaa4dd3cf46e74a172649742f7a9ae",
    "pipeline-0/metrics-off.csv": "b26ec8893443dad2e2a713d2f262ca93ab34c9caa32ebd51390e7d26b3e4b351",
    "pipeline-0/metrics-off.json": "4e6b90c43de63f591f848c6f3e1484dca9716cc41f7a4022236a3a37ef60f72b",
    "pipeline-0/run-ctp.json": "2a6bdcc8854ea7aaf51c321d35af81008e60bafed89b809cd110cb7261054f60",
    "pipeline-0/run-ekf.json": "af5612aac49a13dfea82f3d4346e766b13d4ea8f2be3a4550ef61bc70bbe7b6f",
    "pipeline-0/run-kf.json": "e3f993e6cd26bb76ab4b5224602b0400fd391261e07b20e7340b4bb2ec70a1e6",
    "pipeline-0/run-off.json": "3a6ecc14ce6f3b83e872da4788b8bf8a6c8c6afb0b403a1a9e9b6c65679f9c09",
    "pipeline-0/scenario.json": "392eb37bcc09fcc988e3803cf1013792f0baf8350a53a7f390d320bbdbf8b7b5",
    "pipeline-0/seq.jsonl": "91ffbcee8bb8e269c01ee411cb5e112df6bb65da2c999b72f834896f1cc555a4",
    "pipeline-0/seq.jsonl.npy": "ea52b06b3a70714e7890f05300f563ef0f6745ff328bdec4ef8ced5dd5e14239",
    "pipeline-3/metrics-ctp.csv": "a3e12702e014303191f2dcb8b0717437279148ae7957f2d5451320e69cdff9bb",
    "pipeline-3/metrics-ctp.json": "e86d9f625f9e1d194e6be6b0b1fd860a792eaf4793c35f2dee1638aa2b0fe1ab",
    "pipeline-3/metrics-ekf.csv": "5496061408d25251b7745a43fd1798d114902548c286331febb4d6aed2b7db1b",
    "pipeline-3/metrics-ekf.json": "4f03592f2d3f1274dcfe4f3b8c74fc2fe6977f6374bf93a988f4f36255d0f6f9",
    "pipeline-3/metrics-kf.csv": "4fda5dad291d8390ce91c5b29d38284efa1c334d0f496388de072c13fe3af4ee",
    "pipeline-3/metrics-kf.json": "bf9d1f0a4e8252c094714bb3757ecdd8b77573c76a640e769470cc192c428266",
    "pipeline-3/metrics-off.csv": "9af0f740906d1b31046425695514a9f5e99c50e77d8e9a20d989090ddad65116",
    "pipeline-3/metrics-off.json": "1b672670dcaa8a02ef4706213a068d391db40d7bf8fa9e9ff5f361b6ee084764",
    "pipeline-3/run-ctp.json": "ab9e0594b4a63e5a6643c306f7ef17ad245639c613ed04eb5cbba91d6688599c",
    "pipeline-3/run-ekf.json": "e8abdb701a566a05c88c7c46640cc8cdfc557938881eeb23acb003c19467cb74",
    "pipeline-3/run-kf.json": "588d8bfdb4b47b762bd8193e3d1d04b67a7520b9be16cd63f533af91c41d8386",
    "pipeline-3/run-off.json": "bb635382d34815b6766a862d3db9970b416ca32afa0cb5b4a2b04cde0e8b7570",
    "pipeline-3/scenario.json": "25b24726617fd53289d3b8533cbcaca0d8fa14ab6870cf97fc57890b388cb9d8",
    "pipeline-3/seq.jsonl": "a336473a193fd36f4837043f3185de5101f06789c37eec316cc8c9ae9ecd0f1c",
    "pipeline-3/seq.jsonl.npy": "c21587353595f6d141d568f3323d7ccafd36f84bf958f7c49b32843282770194",
    "pipeline-5/metrics-ctp.csv": "d0a2c392ff02b2c9234d492c62d34a7f1f9289f37ec89ebc77e45da60a3d8373",
    "pipeline-5/metrics-ctp.json": "51267c0b06c91e8ec7a3ba9e569963dfb722242ee819761205f0c7f7cf7c2888",
    "pipeline-5/metrics-ekf.csv": "408557589d836cac72f20aa7fcc3eb88e80fffdb068d6999910ab2ec440edb80",
    "pipeline-5/metrics-ekf.json": "63ece1e3cfbab4a5a815c026bc466b01962bbee2af32b06513b073a82ef1f613",
    "pipeline-5/metrics-kf.csv": "54f88289ae0ba7eae329431bbff7cabe59cbcc320ce004b53f9742d514cf69d7",
    "pipeline-5/metrics-kf.json": "f81840834fbb89dec029a58720b17961a46af887447c6116e1470025ee042236",
    "pipeline-5/metrics-off.csv": "a556e802370df657af18af8eaaaf098f4e32878ccdf72d93f9317d6cbcb1ab15",
    "pipeline-5/metrics-off.json": "8f67d40d5af0c812a3fd71da15c915f87c4c94caf2a7c50afd91988e42bc8bdb",
    "pipeline-5/run-ctp.json": "b036141d308f940ad82b51eefa28996a6e8cbfd07305a716a4d5553e6b7ee97f",
    "pipeline-5/run-ekf.json": "0014b48ec14aa53d40872b868747e29d616a98738b273801c70f0e96daa3a09e",
    "pipeline-5/run-kf.json": "af9f7be1ef141bf3c112c42f787bad10b45abfbbbd008721d7e349074f0ba1cb",
    "pipeline-5/run-off.json": "2d74181e1c4f3ee35e080537c2211af65957eb8a36ed31e7bba7a689891b8592",
    "pipeline-5/scenario.json": "e4d4cb56ff8df2072a86af6d3f10f626e577c292f2368243edef30c419fc527f",
    "pipeline-5/seq.jsonl": "d944da85145c8bbb002661ad6c93d9488cc53f5f083841577e5c10ba7d65cc2e",
    "pipeline-5/seq.jsonl.npy": "10b9069c57251eb17e42708a493076dd1ace4c211d145baf413d836895fbc7f2",
}


def _reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="utf-8"))


def test_cli_outputs_match_their_pinned_digests(tmp_path, capsys):
    got = written_digests(tmp_path)
    capsys.readouterr()
    # The default (ctp) round is the benchmark's pipeline round on the same scenario.
    reference = _reference("pipeline")["eval"]
    for index in PIPELINE_INDICES:
        summary = (tmp_path / f"pipeline-{index}" / "metrics-ctp.json").read_text(encoding="utf-8")
        assert json.loads(summary) == reference[str(index)], index
    changed = sorted(name for name in PINNED.keys() | got.keys() if PINNED.get(name) != got.get(name))
    assert not changed, (
        f"outputs differ from the digests pinned for this build ({_build()}; another numpy or "
        f"BLAS build may round differently): {changed}"
    )


def test_spread_ablation_suites_match_the_stored_reference():
    reference = _reference("ablate")["suites"]
    for seed in REPLAYED_SUITES:
        table = run_ablation_suite(seed)
        sr = {preset: table[preset]["SR"] for preset in MOTION_PRESETS}
        got = {
            "table": table,
            "ordered": sr["ctp"] >= sr["ekf"] >= sr["kf"] >= sr["off"],
            "strict": sr["ctp"] > sr["off"],
        }
        assert got == reference[str(seed)], f"suite {seed} differs from the stored reference ({_build()})"


# SHA-256 of ``xmtrack gradcheck --seed SEED [--inject-bug]``'s stdout, and its exit code.
GRADCHECK_PINNED = {
    (0, False): ("9d8a00e4db54ad2ae2ed26eece5f5165f08411817425d2d71fac14f0f74d0993", 0),
    (0, True): ("f4f14de7aa653072c601c7776a50f915c44215473e43f81ad194c2a603007191", 3),
    (1, False): ("0d2ab03610fe62f08a1d62ef5e4c6f9ca46cf902e0c9e3020bbae19bdd2993a6", 0),
    (1, True): ("33c24edf2de5c549868ea81d073e541a8379fa5938ef2ccb437ad5c4b8764753", 3),
    (5, False): ("f546c3143f2b775165a68fde74b94c5b74d246aa527f9fe9df044cc5741256f2", 0),
    (5, True): ("e6f19171d1a8e6740557a7e49a1d3b0031afa3472886797805848f974469ad8d", 3),
    (12345, False): ("8e86d8195f899e3c36ad91db79392cd8b226d48ba9db828e81fb2f5869b999c6", 0),
    (12345, True): ("e0ac70dd2d7d68ca0741644aaa789854eb016e382a27898435da243ee94d86d3", 3),
}


def test_gradcheck_stdout_matches_its_pinned_digests(capsys):
    for (seed, inject_bug), (digest, code) in GRADCHECK_PINNED.items():
        assert main(["gradcheck", "--seed", str(seed), *["--inject-bug"] * inject_bug]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, (
            f"gradcheck --seed {seed}{' --inject-bug' * inject_bug} printed, on {_build()}:\n{out}"
        )
