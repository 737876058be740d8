"""Golden digests of the seeded artefacts of every CLI command.

Each case runs one quick desk configuration in process and hashes what it
wrote: trace CSVs without the elapsed-time column, ``summary.json`` without
``wall_clock_s``, and record dumps as written.  The digests were recorded
with numpy 2.4.6.  A change meant to keep numerics bit-identical must leave
them unchanged; a change meant to alter numerics regenerates them and says
why.  The ``signal`` digest was regenerated when the slab family began
evaluating its drawn members in one batch: the inner products sum in another
order, which moved its residuals by at most 5e-15 and its dB columns by at
most 3e-14 dB.  It was regenerated again when ``final_norm_err_db`` in
``summary.json`` became the dB of the final iterate x_N for the experiment
commands, as it already was for ``toy``; before, it was the last recorded
trace row, x_{N-1}.  Only one value moved, that of a ``uniform`` run, from
-13.88 to -15.69 dB; in the other seven runs x_N = x_{N-1}, and no trace
CSV changed.
"""

import hashlib
import json

import pytest

from stochfeas.cli import EXIT_OK, main

CASES = {
    "toy": (["toy", "--dump-records"],
            "376782e6931e973299c80e3ee8f314c4524dd4cf740a0f1a55a1c1c05e4b4fbc"),
    "km": (["km", "--iters", "300", "--relaxation", "const:0.5",
            "--noise-c", "1.0", "--noise-q", "1.5"],
           "0fbf429a7c7f83e7578451c1f225d6bb31d6c88fda9c0883fd137d90b81cb571"),
    "sgd": (["sgd", "--iters", "2000", "--repeats", "2"],
            "bb1c976b724a164de779321d5ae552e5baaa94584509c1b92434833e7a08e6f6"),
    "signal": (["signal", "--scale", "desk", "--M", "4", "--iters", "60", "--repeats", "2"],
               "e4c8f76ac50d4d85ceedee7be4a459c605baf71ebc5551f04f88ca32a0ff101b"),
    "image": (["image", "--scale", "desk", "--iters", "40"],
              "c793a5abeb17299d63c2ae5501192325f500804a42ac124e221eaa14feb561ae"),
}


def _csv_without_elapsed(text: str) -> str:
    out = []
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            parts = line.rstrip("\n").split(",")
            del parts[1]
            line = ",".join(parts) + "\n"
        out.append(line)
    return "".join(out)


def artefact_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        text = path.read_text()
        if path.name == "summary.json":
            payload = json.loads(text)
            for run in payload["runs"]:
                del run["wall_clock_s"]
            text = json.dumps(payload, sort_keys=True)
        elif path.suffix == ".csv":
            text = _csv_without_elapsed(text)
        h.update(path.name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artefacts_match_golden_digest(name, tmp_path):
    argv, expected = CASES[name]
    out_dir = tmp_path / name
    assert main(argv + ["--seed", "3", "--output-dir", str(out_dir)]) == EXIT_OK
    assert artefact_digest(out_dir) == expected
