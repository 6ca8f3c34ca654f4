"""Golden manifest: `run` then `report` on the 70-ticker blob fixture.

Criterion 9 compares two runs of the same build, so it cannot see a change
that moves output bytes. These digests pin every file a fixed-k and an
auto-k run leave behind, plus `run`'s stdout with the temp path masked. A
change that moves any of them must re-pin it and say why.
"""

import hashlib

import pytest

from test_cli import write_config
from tscnet.cli import main

RUN_STDOUT = (
    "k=4 silhouette=0.871128843809\n"
    "train=46 test=24\n"
    "final_loss=1.40135708994\n"
    "accuracy=0.25\n"
    "artifact evaluation.csv\n"
    "{sweep}"
    "artifact labels.csv\n"
    "artifact loss.csv\n"
    "artifact model.tscnet\n"
    "artifact scatter_autoencoder.svg\n"
    "artifact scatter_kmeans.svg\n"
    "manifest=<tmp>/out/manifest.txt\n"
)

SHARED = {
    "evaluation.csv": "012b50149921c967fb27c7f6196cd937ab9a10a0d161432ab044d82a3d0071af",
    "labels.csv": "560d26cdee073e1b26e615c0d608611278ef748d2396acc08416a576b42660a8",
    "loss.csv": "fd402dd63f55847b50bc737efcc2c1e17f39fe6d3395ce6c45303dcffebdfd5a",
    "loss.svg": "40628b21d718abcc935f98ccc6cd96ae3aefa41d8337d825bd4789516369c183",
    "model.tscnet": "c5c47a770a19695d51fbc2eddbc47a106ea8b5af9f5ca93a3b959c2d732336da",
    "scatter_autoencoder.svg": "66de6fed476b38d7bff385d6d197115a6f45c1351dc0d1762139c1159dffaecb",
    "scatter_kmeans.svg": "d1beba1d37f6929168dc6869bed2456e617e7990f48123f824ea3e0deb926e84",
    "scatter_points.csv": "dbb76da512448de89ebfce77d90ea420acf31b6d3f214f180a648e1001e09955",
}

GOLDEN = {
    "4": {
        "stdout": RUN_STDOUT.format(sweep=""),
        "files": {
            **SHARED,
            "manifest.txt": "0b7065c7b07b0c7ec4c04d16b9516cc4160e5fb6887270dc61184fb5414010c7",
        },
    },
    "auto": {
        "stdout": RUN_STDOUT.format(sweep="artifact k_sweep.csv\n"),
        "files": {
            **SHARED,
            "k_sweep.csv": "09705d9aeaa67a42cdd63a803d0dc9ff7916c66a29fe37b5b7f36cfd51f9d704",
            "k_sweep.svg": "9026d10ffa64551158f33650a9f6544421107de0024f9e26a5d788e464a3e5ed",
            "manifest.txt": "a20477dd8efdde3940b792d4030bd2b509e9b9c1f83d2ee4736b0bf1e0670810",
        },
    },
}


@pytest.mark.parametrize("k", sorted(GOLDEN))
def test_run_then_report_is_byte_identical(tmp_path, blob_prices_csv, capsys, k):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.cfg", blob_prices_csv, out, k=k)
    capsys.readouterr()
    assert main(["run", str(cfg)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    assert main(["report", "--out-dir", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert stdout == GOLDEN[k]["stdout"]
    assert digests == GOLDEN[k]["files"]
