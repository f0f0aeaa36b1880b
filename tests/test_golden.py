"""Output contract: sha256 digests of what the CLI writes on fixed inputs.

Each case builds its inputs from fixed seeds in a fresh directory, runs
``rmodesim`` in-process and hashes every file it wrote, the synthetic logs
and lattice files it read, and its text and CSV stdout (with the run
directory replaced by ``<run>``). The point case hashes the ``repr`` of
what ``accuracy_at`` returns along a track. The table holds digests only,
no output files. A mismatch names the file and the numpy version that made
the table: the coverage accuracy goes through numpy's vectorised ``pow``, whose
last bit can differ between numpy versions.

Regenerate the table only with a change that says which bytes changed and
why; ``PYTHONPATH=src python tests/test_golden.py`` prints a fresh one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
import yaml

from rmodesim.accuracy import accuracy_at
from rmodesim.cli import main
from rmodesim.config import load_config
from rmodesim.geodesy import GeoPoint
from rmodesim.propagation import FieldGrid, write_field_grid

from helpers import synth_logs

SHIPPED_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "korea_mf.yaml"

DIGESTS_NUMPY = "2.4.6"
DIGESTS = {
    "coverage-lattice/lattices/field_chungju.csv": "de3b9d25db3648326b452d03f3d54e3667a471598a8ae3f1426d9cc0fbe66a2d",
    "coverage-lattice/lattices/field_eocheong.csv": "39be50773899a4f75b27a42b21306e009cc3dd960778a47d4cb308c5f67ea4fe",
    "coverage-lattice/lattices/field_palmi.csv": "5cccb5c91d2d28949dfc89d44f378a1b0d80ec36435b2f6ecc409bc32bada7fd",
    "coverage-lattice/lattices/noise.csv": "8d9104ddc3bc600983326213ad5165a36b0185169bf016be385426e95d40dae7",
    "coverage-lattice/coverage-stdout-text": "e5958161e11de1a7ace42ad9d4175e6a72e3a2c37b238faabd2b687959f743f6",
    "coverage-lattice/coverage-stdout-csv": "0a2a4c75a7eb70e9edf4bd4ca56ca67c471912443991d85b25ecea012365879a",
    "coverage-lattice/out/contour_10m.csv": "93f572ca039d2a6fff1395227643f70664d39e020783f008cb25345be13fc22c",
    "coverage-lattice/out/coverage.csv": "92dd1f17738719bad2b3c7fa07da350e8b64af6e3a20c51a614dabd7980b972f",
    "coverage-lattice/out/coverage.pgm": "256f52ab860ff539817156c95045c267300b1e77f96297111a2262c532381288",
    "coverage-masks/coverage-stdout-text": "f43f1e10307dd0d759a39c8d6877d1a68229c54be54a7cba8ade9a8993660fa5",
    "coverage-masks/coverage-stdout-csv": "d635db1513ed773a9192df567d9babe79ea9b8bda2ddb892ab856168e188447d",
    "coverage-masks/out/contour_10m.csv": "6956a7ec8785eec6ca8f4a275141d8a7679671a0d661c9f1dcde96e91039efef",
    "coverage-masks/out/coverage.csv": "46a60d9144fa229d6a4ae5ee94592717c1e96b21941dcbe5d6d40134828669e9",
    "coverage-masks/out/coverage.pgm": "944b0318aff41bf59e23e3a2dede604c8d121b34f2285fe5186cc0e535c6f9d2",
    "coverage-shipped/coverage-stdout-text": "0cb3251c208a14aba9fd83b4a7ec01b0510aa2f2e9f7233eb712e5a64f8ac2b0",
    "coverage-shipped/coverage-stdout-csv": "bd323b7b6517391b1492899c8eab7e79d756f9645b2d66f151eb31cf3b2b2676",
    "coverage-shipped/out/contour_10m.csv": "30454340437b1cf06fa2dfa7dad6035f9ced55ef00381a785965b57659eceab1",
    "coverage-shipped/out/coverage.csv": "1cd93ae1fe4d6dce3bd28da92171ffbc16fd911d921533c5bf42ef876f8d662e",
    "coverage-shipped/out/coverage.pgm": "83bf6d2b6ca6501a58e8cb7dc756ca585ea479398583bb41ff7376ad8880dd15",
    "fit-gauss/logs/chungju.csv": "9de3354b951e987c8aab16208a620c89409a347ee5fde9a39297b348126e728b",
    "fit-gauss/logs/eocheong.csv": "aed1e0f38d4c2015e98ba8d983bba6d27a22a744ddfd2e8938151ffd87be49a5",
    "fit-gauss/logs/palmi.csv": "c76a6c09c15839983e66b3ec96280de5b9e1cdd18f1618df763e850e4c39a61b",
    "fit-gauss/fit-stdout-text": "835be6eca63fcb1a08c91f29dc8a377263c2e18d5063201a14ba932e20a45bd5",
    "fit-gauss/fit-stdout-csv": "956f662d8cd2059384497d3f733758b7c622cc55f54281c35f77ed5bbcc85056",
    "fit-gauss/out/fit_report.csv": "11534c124728f5225fafe603be4e75b54a77427ec309792a6aa6a637452fc924",
    "fit-gauss/out/fitted_params.yaml": "5ef54ea25af22f21d6a5f3d219ad7c25acd0b680a96b366af2520d342cdc89ec",
    "fit-gauss-linear/logs/chungju.csv": "9de3354b951e987c8aab16208a620c89409a347ee5fde9a39297b348126e728b",
    "fit-gauss-linear/logs/eocheong.csv": "aed1e0f38d4c2015e98ba8d983bba6d27a22a744ddfd2e8938151ffd87be49a5",
    "fit-gauss-linear/logs/palmi.csv": "c76a6c09c15839983e66b3ec96280de5b9e1cdd18f1618df763e850e4c39a61b",
    "fit-gauss-linear/fit-stdout-text": "cdf2b23340f3eb5b0c790bed84207cbd7715bc04325c3213338f4fb96feab86f",
    "fit-gauss-linear/fit-stdout-csv": "596ad205c4d8aa75f55c5bf65b718e0bb0e3514f7438748505ea6ed0839f0795",
    "fit-gauss-linear/out/fit_report.csv": "a89b1bd3c612fe65fdd1e7571d34b48c5af1d6d96fad1cb02ed305664be38208",
    "fit-gauss-linear/out/fitted_params.yaml": "d42d42aa217535f0dd2e3078240124d708976842f11f902ca5121f23330ab1bf",
    "fit-gauss-trim/logs/chungju.csv": "9de3354b951e987c8aab16208a620c89409a347ee5fde9a39297b348126e728b",
    "fit-gauss-trim/logs/eocheong.csv": "aed1e0f38d4c2015e98ba8d983bba6d27a22a744ddfd2e8938151ffd87be49a5",
    "fit-gauss-trim/logs/palmi.csv": "c76a6c09c15839983e66b3ec96280de5b9e1cdd18f1618df763e850e4c39a61b",
    "fit-gauss-trim/fit-stdout-text": "dd65be913ed27cb7b31099d1aa30c659b4d23fb6ef12a81f6452091d2b2dba24",
    "fit-gauss-trim/fit-stdout-csv": "207eb7d3cad44219b852e1fe5429d420be848dff52939cd12fcec283ca231685",
    "fit-gauss-trim/out/fit_report.csv": "50a8329135d5429bf8d4775ab44fe04120ae34f38179428c049d1655ef3d453c",
    "fit-gauss-trim/out/fitted_params.yaml": "619e35c791951571230f895be938487bf290f5d7935f08601f7620934ac46657",
    "fit-none/logs/chungju.csv": "605d1325c2e8b2682eb60a3e852ffdbb923cc6226f2fafd108a4a4d03005b878",
    "fit-none/logs/eocheong.csv": "c48c22505fb84fb938621e20f0f6aba50370dfb76552bede2696d33d894cf1a5",
    "fit-none/logs/palmi.csv": "1cff3ba3010a74141db531d59e5f6d57ac0eebba9f02b7a8932219f66744e1c7",
    "fit-none/fit-stdout-text": "b737d5307a18d896de5021d869f03d8aad5edb34663cb351f25a70213ae39ba3",
    "fit-none/fit-stdout-csv": "adced37af5c8e4789a48625c5362450d83949047632d47d8b956ed648caf8062",
    "fit-none/out/fit_report.csv": "9fcc7f80f350d88806a85220177b36eac9d87c25e7e35b5aebc6a934461a4173",
    "fit-none/out/fitted_params.yaml": "391d1dcfd52f2b77bb2daefba4c62053556a5676f4b47638b2dca2ec7bae709e",
    "point-lattice/lattices/field_chungju.csv": "310b323119a8f1d57478c249fae2af3f106a95e378b031f619a2bfa8f5fec1b8",
    "point-lattice/lattices/field_eocheong.csv": "551a4f88594da38165ddf2d6b0aef7a5f96f98120e4a2dc838efae852aa77776",
    "point-lattice/lattices/field_palmi.csv": "bc8c2cbfc92d0ace81af8fe81e3384d2e3d880a2427c86a5d55a8d2b17be13e2",
    "point-lattice/lattices/noise.csv": "d54f56de302d0405338ee778865c7103f4f2698c5422792f7ebf1892d0277081",
    "point-lattice/track-points": "1d7a557babbaa26b8fa0c09987f7f6131a95ec446f4eb6bbfaea3ac049d2e3d6",
    "point-lattice/track-stations": "e93d3ca1877ffb04025d9726d195c50d9f8b9f609cfae3fd9e6d1bad95fbdec7",
}


def _cli(run_dir: Path, *argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"rmodesim {' '.join(argv)} exited {code}"
    return buf.getvalue().replace(str(run_dir), "<run>")


def _shipped(run_dir: Path, mutate=None) -> Path:
    cfg = yaml.safe_load(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    if mutate:
        mutate(cfg)
    path = run_dir / "run.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    return path


def _fit_case(run_dir: Path, noise: str, detrend: str = "none", trim_fraction: float = 0.0) -> dict[str, bytes]:
    """Seeded synthetic logs from the shipped config (``helpers.synth_logs``), then ``fit`` them."""

    def mutate(cfg):
        cfg["fit"]["detrend"] = detrend
        cfg["fit"]["trim_fraction"] = trim_fraction

    config = _shipped(run_dir, mutate)
    paths = synth_logs(config, run_dir / "logs", seed=3, windows=40, noise=noise)
    out = {f"logs/{p.name}": p.read_bytes() for p in paths}
    args = ["fit", "--config", str(config), *map(str, paths)]
    out["fit-stdout-text"] = _cli(run_dir, *args).encode()
    out["fit-stdout-csv"] = _cli(run_dir, *args, "--format", "csv").encode()
    for name in ("fit_report.csv", "fitted_params.yaml"):
        out[f"out/{name}"] = (run_dir / "out" / name).read_bytes()
    return out


def _coverage_outputs(run_dir: Path, config: Path) -> dict[str, bytes]:
    out = {"coverage-stdout-text": _cli(run_dir, "coverage", "--config", str(config)).encode()}
    out["coverage-stdout-csv"] = _cli(run_dir, "coverage", "--config", str(config), "--format", "csv").encode()
    for p in sorted((run_dir / "out").iterdir()):
        out[f"out/{p.name}"] = p.read_bytes()
    return out


def _coverage_masks_case(run_dir: Path) -> dict[str, bytes]:
    """The shipped 121x121 grid at a noise level that masks cells for both reasons."""

    def mutate(cfg):
        cfg["noise"]["level_dbuv_m"] = 50.0

    out = _coverage_outputs(run_dir, _shipped(run_dir, mutate))
    with open(run_dir / "out" / "coverage.csv", newline="", encoding="utf-8") as f:
        masks = {row[-1] for row in csv.reader(f)}
    assert {"TooFewStations", "SingularGeometry"} <= masks
    return out


def _coverage_lattice_case(run_dir: Path) -> dict[str, bytes]:
    """The shipped stations with seeded field and noise lattices."""
    rng = np.random.default_rng(2024)
    lat = 34.0 + 0.25 * np.arange(21)
    lon = 124.0 + 0.25 * np.arange(21)
    cfg = yaml.safe_load(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    grids = {}
    for st in cfg["stations"]:
        grids[st["id"]] = f"field_{st['id']}.csv"
        write_field_grid(FieldGrid(lat, lon, rng.uniform(45.0, 75.0, (21, 21))), run_dir / grids[st["id"]])
    write_field_grid(FieldGrid(lat, lon, rng.uniform(35.0, 45.0, (21, 21))), run_dir / "noise.csv")

    def mutate(c):
        c["propagation"] = {"kind": "grid", "grids": grids}
        c["noise"] = {"grid": "noise.csv"}
        c["grid"] = {"lat_min": 34.5, "lat_max": 38.5, "lon_min": 124.5, "lon_max": 128.5, "step_deg": 0.05}

    out = {f"lattices/{p.name}": p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}
    return out | _coverage_outputs(run_dir, _shipped(run_dir, mutate))


def _point_lattice_case(run_dir: Path) -> dict[str, bytes]:
    """``accuracy_at`` along a seeded track on seeded field and noise lattices.

    Palmi moves onto Eocheong's meridian, so the track's points on that
    meridian beyond both sites see the two at one azimuth (singular
    geometry); the wide field range drops stations below the threshold
    elsewhere. The track ends at exact lattice nodes and on the upper edge
    of each axis.
    """
    rng = np.random.default_rng(77)
    lat = 34.0 + 0.25 * np.arange(21)
    lon = 124.0 + 0.25 * np.arange(21)
    cfg = yaml.safe_load(SHIPPED_CONFIG.read_text(encoding="utf-8"))
    grids = {}
    for st in cfg["stations"]:
        grids[st["id"]] = f"field_{st['id']}.csv"
        write_field_grid(FieldGrid(lat, lon, rng.uniform(20.0, 75.0, (21, 21))), run_dir / grids[st["id"]])
    write_field_grid(FieldGrid(lat, lon, rng.uniform(35.0, 45.0, (21, 21))), run_dir / "noise.csv")

    def mutate(c):
        c["stations"][1]["lon_deg"] = c["stations"][0]["lon_deg"]
        c["propagation"] = {"kind": "grid", "grids": grids}
        c["noise"] = {"grid": "noise.csv"}
        del c["grid"]

    out = {f"lattices/{p.name}": p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}
    run = load_config(_shipped(run_dir, mutate))
    t = np.linspace(0.0, 1.0, 200)
    track = list(zip(34.2 + 4.6 * t + rng.normal(0.0, 0.05, t.size), 128.8 - 4.6 * t + rng.normal(0.0, 0.05, t.size)))
    meridian = run.stations[0].position.lon_deg
    track += [(la, meridian) for la in (34.1, 35.0, 37.9, 38.6)]
    track += [(lat[i], lon[j]) for i, j in rng.integers(0, 21, (12, 2))]
    track += [(lat[-1], x) for x in rng.uniform(124.0, 129.0, 3)] + [(x, lon[-1]) for x in rng.uniform(34.0, 39.0, 3)]
    track += [(lat[-1], lon[-1]), (lat[0], lon[-1]), (lat[-1], lon[0]), (lat[0], lon[0])]
    results = [
        accuracy_at(GeoPoint(float(la), float(lo)), run.stations, run.params, run.propagation, run.noise,
                    run.snr_threshold_db)
        for la, lo in track
    ]
    assert {"TooFewStations", "SingularGeometry", None} <= {r.mask_reason for r in results}
    out["track-points"] = "".join(f"{(r.accuracy_m, r.mask_reason, r.usable_count)!r}\n" for r in results).encode()
    out["track-stations"] = "".join(
        f"{(s.station_id, s.snr_db, s.sigma2_m2, s.azimuth_rad)!r}\n" for r in results for s in r.stations
    ).encode()
    return out


CASES = {
    "fit-none": lambda d: _fit_case(d, "none"),
    "fit-gauss": lambda d: _fit_case(d, "gauss"),
    "fit-gauss-linear": lambda d: _fit_case(d, "gauss", detrend="linear"),
    "fit-gauss-trim": lambda d: _fit_case(d, "gauss", trim_fraction=0.1),
    "coverage-shipped": lambda d: _coverage_outputs(d, _shipped(d)),
    "coverage-masks": _coverage_masks_case,
    "coverage-lattice": _coverage_lattice_case,
    "point-lattice": _point_lattice_case,
}


def _digests(case: str, run_dir: Path) -> dict[str, str]:
    return {f"{case}/{name}": hashlib.sha256(data).hexdigest() for name, data in CASES[case](run_dir).items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    got = _digests(case, tmp_path)
    want = {k: v for k, v in DIGESTS.items() if k.startswith(f"{case}/")}
    assert sorted(got) == sorted(want), "the case writes a different set of files than the table lists"
    changed = [name for name in sorted(got) if got[name] != want[name]]
    assert not changed, (
        f"output bytes changed: {', '.join(changed)} "
        f"(digests made with numpy {DIGESTS_NUMPY}, running numpy {np.__version__})"
    )


if __name__ == "__main__":
    import tempfile

    print(f'DIGESTS_NUMPY = "{np.__version__}"')
    print("DIGESTS = {")
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for name, digest in _digests(case, Path(tmp)).items():
                print(f'    "{name}": "{digest}",')
    print("}")
