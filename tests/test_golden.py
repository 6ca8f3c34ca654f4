"""Golden manifest: `run` then `report` on the 70-ticker blob fixture.

Criterion 9 compares two runs of the same build, so it cannot see a change
that moves output bytes. These digests pin every file a fixed-k and an
auto-k run leave behind, plus `run`'s stdout with the temp path masked. A
change that moves any of them must re-pin it and say why.

Re-pinned once, when Stage 1 began numbering clusters by descending mean
return: the labels, the model, the loss, the evaluation, the scatter files
and the manifests moved. `k_sweep.csv` and `k_sweep.svg` kept their digests,
because the silhouette does not depend on the numbering.

Re-pinned again when Stage 2 began training in float32 while predicting in
float64: the model, the loss, the evaluation, the manifests and the printed
final loss moved. The labels, `k_sweep.csv` and `k_sweep.svg` kept their
digests, because Stage 1 is untouched; the scatter files and `loss.svg`
kept theirs too, since the predicted labels and the plotted loss did not
change at this fixture's precision.
"""

import hashlib

import pytest

from test_cli import write_config
from tscnet.cli import main

RUN_STDOUT = (
    "k=4 silhouette=0.871128843809\n"
    "train=46 test=24\n"
    "final_loss=1.36332867558\n"
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
    "evaluation.csv": "05202139decc9b7bf47ed1ca9972b4b6cd260d3cd2f67700985bf20bf7def8fe",
    "labels.csv": "3e3a2b268e671ebd95d089c43e79371f3bee0eb5ad6b946cdf42e95156dc7c0e",
    "loss.csv": "90365b9eabbe03615a1380ebaf48f3263ee668457c2bf6e59485331160a68419",
    "loss.svg": "f8647028896cf911d979b4736bd8966fa6b119d31eeb6607fcc4b1935d79e3d8",
    "model.tscnet": "d82537f518bd403d08ce0b7b38da8c04a67dd041919866ef3fcef492ac0d3f9d",
    "scatter_autoencoder.svg": "92c191608755fe477347863aec2a64e25a72014c2798027e4c15d6921ad5bda2",
    "scatter_kmeans.svg": "fdfc90a4028cc2b99b8bd42e274eb3d004a9b8909df97e226676c6fc3abad18b",
    "scatter_points.csv": "ad656c6993bf683446527423d41362184f60e5f37dba63a1fb11b824ca0586cd",
}

GOLDEN = {
    "4": {
        "stdout": RUN_STDOUT.format(sweep=""),
        "files": {
            **SHARED,
            "manifest.txt": "81423d781e5e0b8398502da7773dfed724f6e8e11046c616b7dca8c872ca3902",
        },
    },
    "auto": {
        "stdout": RUN_STDOUT.format(sweep="artifact k_sweep.csv\n"),
        "files": {
            **SHARED,
            "k_sweep.csv": "09705d9aeaa67a42cdd63a803d0dc9ff7916c66a29fe37b5b7f36cfd51f9d704",
            "k_sweep.svg": "9026d10ffa64551158f33650a9f6544421107de0024f9e26a5d788e464a3e5ed",
            "manifest.txt": "a368d474593c433d580158cde205911ef4cb26b139677dc30ae7867fd3217d9b",
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
