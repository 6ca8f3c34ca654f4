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

Re-pinned again when each layer's bias was folded into its matmul, so that
every pass runs feature-major over a ones row: the sums of each matmul and
of each bias gradient run in another order, which moves the float32 outputs
by up to one ulp. The model, the loss, the evaluation, the manifests and the
printed final loss moved; every other file kept its digest.
"""

import hashlib

import pytest

from test_cli import write_config
from tscnet.cli import main

RUN_STDOUT = (
    "k=4 silhouette=0.871128843809\n"
    "train=46 test=24\n"
    "final_loss=1.36332871824\n"
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
    "evaluation.csv": "9e46949569cc1f21c5ff0947bff76326d6f8b42f491db6ddab3c3a455e476b37",
    "labels.csv": "3e3a2b268e671ebd95d089c43e79371f3bee0eb5ad6b946cdf42e95156dc7c0e",
    "loss.csv": "362750f45893003ce7ac9d866a3db87bf94d35bd4fc39bc0cb752f52c1bb2548",
    "loss.svg": "f8647028896cf911d979b4736bd8966fa6b119d31eeb6607fcc4b1935d79e3d8",
    "model.tscnet": "66ac219dbd885e7328544873803e96e408ee84e7063b7f7ba56d9d40967dc25a",
    "scatter_autoencoder.svg": "92c191608755fe477347863aec2a64e25a72014c2798027e4c15d6921ad5bda2",
    "scatter_kmeans.svg": "fdfc90a4028cc2b99b8bd42e274eb3d004a9b8909df97e226676c6fc3abad18b",
    "scatter_points.csv": "ad656c6993bf683446527423d41362184f60e5f37dba63a1fb11b824ca0586cd",
}

GOLDEN = {
    "4": {
        "stdout": RUN_STDOUT.format(sweep=""),
        "files": {
            **SHARED,
            "manifest.txt": "e14de6f18e448e368a16da4391754687f491f0f07285759a99f78f672ae49082",
        },
    },
    "auto": {
        "stdout": RUN_STDOUT.format(sweep="artifact k_sweep.csv\n"),
        "files": {
            **SHARED,
            "k_sweep.csv": "09705d9aeaa67a42cdd63a803d0dc9ff7916c66a29fe37b5b7f36cfd51f9d704",
            "k_sweep.svg": "9026d10ffa64551158f33650a9f6544421107de0024f9e26a5d788e464a3e5ed",
            "manifest.txt": "d216fd0dc629d61386798baf7727a2958375a5d5d0cea7aeabae37ea32bec420",
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
