"""Golden digests of the seeded artefacts of every CLI command.

Each case runs one quick desk configuration in process and hashes what it
wrote: trace CSVs without the elapsed-time column, ``summary.json`` without
``wall_clock_s``, and record dumps as written.  A change meant to keep
numerics bit-identical must leave them unchanged; a change meant to alter
numerics regenerates them and says why.

The digests hold for one numpy build at one CPU dispatch level: they were
recorded with numpy 2.4.6 on x86-64 dispatching to AVX-512
(``numpy._core._multiarray_umath.__cpu_dispatch__`` lists X86_V4,
AVX512_ICL and AVX512_SPR).  There ``np.exp`` differs from ``math.exp`` on
4.6% of ``linspace(-700, 700, 200001)`` and ``np.log10`` from
``math.log10`` on 7.1% of ``linspace(0.01, 100, 200001)``, and those two
functions feed the blur kernels and the dB column, so another build or
dispatch level may round them differently and move the digests.  Other
dispatch levels are unverified.

The ``signal-records`` case was added when the recording pass of an
experiment began to play back its reference pass's tape: a config that
collects records reruns its recording pass instead, and its digest was
recorded on the code from before the tape.

The ``signal`` digest was regenerated when the slab family began evaluating
its drawn members in one batch: the inner products sum in another
order, which moved its residuals by at most 5e-15 and its dB columns by at
most 3e-14 dB.  It was regenerated again when ``final_norm_err_db`` in
``summary.json`` became the dB of the final iterate x_N for the experiment
commands, as it already was for ``toy``; before, it was the last recorded
trace row, x_{N-1}.  Only one value moved, that of a ``uniform`` run, from
-13.88 to -15.69 dB; in the other seven runs x_N = x_{N-1}, and no trace
CSV changed.  The ``image`` digest was regenerated when block runs over the
image family began to keep the spectrum of x beside x, advanced by
linearity, instead of transforming every iterate, and ball subgradients
began to come from a real inverse transform.  Against the previous code the
final iterates of its four runs moved by at most 9.4e-13 (pixels lie in
[0, 255]) and the residual column by at most 9.8e-16 relative.  Its runs
have no dB column before or after: their 400-iteration reference passes
end above the residual threshold, so none gives a reference.  It was
regenerated again when those runs began to combine their members' step
spectra and take one inverse transform per iteration, with residuals taken
by Parseval, and the Fourier member's step became the Hermitian part of its
masked difference.  Against the previous code the final iterates moved by
at most 5.4e-13, and the residual column by at most 9.5e-12 (1.3e-15 of its largest
value, 7,440).  One row changed between zero and nonzero: iteration 1 of
the ``const1`` run, 0.0 before and 1.9e-12 after.  Iteration 0 put x on
the Fourier set, and iteration 1 draws only the Fourier member, whose
residual there is rounding: now that of X advanced by linearity.  It was
regenerated again when the image problem, its run state and its checks
moved to half spectra (rfft2 and one checked irfft2), with norms by
Parseval over the half grid.  Against the previous code its residual
column moved by at most 1.5e-11 (2.0e-15 of its largest value, 7,440) and
L by at most 2.5e-13, with no row changed between zero and nonzero; it has
no dB column.  On runs that have one (desk instances 0 and 4, the four
strategies, 3,000 iterations, M = 2, the truth as reference), the final
iterates moved by at most 2.1e-11 (8.5e-14 of the largest pixel), the dB
columns by at most 1.7e-12 dB, and the residual columns by at most 3.7e-13
of their largest value; eight rows of one run changed between zero and
nonzero, all Fourier residuals of rounding size (at most 7.8e-13).  It
was regenerated again when those runs began to iterate in the half
spectrum X = rfft2(x), with Parseval norms for the step, the divergence
guard and the dB column, and to map X back to space only for the box, the
records and the final point, and when the problem began to keep the
Hermitian part of its Fourier target.  Against the previous code its
residual column moved by at most 1.6e-11 (2.2e-15 of its largest value)
and L by at most 2.8e-14, with no row changed between zero and nonzero;
two runs' ``final_residual`` in ``summary.json`` moved in the last digits.
On the desk runs with a dB column named above, the final iterates moved
by at most 3.4e-11 (1.4e-13 of the largest pixel), the dB columns by at
most 2.7e-12 dB and the residual columns by at most 4.1e-13 of their
largest value.  95 rows of the two const1 runs changed between zero and
nonzero, all Fourier residuals of rounding size (at most 4.1e-13); 84
of them are now exactly 0, and 11 now nonzero.  It was regenerated again
when those runs began to iterate in the real view of the weighted half
spectrum w rfft2(x), an isometry of space, so that every norm became a
plain sum of squares in place of the Parseval weighting.  Against the
previous code its residual column moved by at most 1.2e-11 (1.6e-15 of
its largest value) and L by at most 6.0e-14, with no row changed between
zero and nonzero; all four runs' ``final_residual`` in ``summary.json``
moved in the last digits.  On the desk runs with a dB column named above,
the final iterates moved by at most 1.3e-11 (5.0e-14 of the largest
pixel), the dB columns by at most 5.2e-13 dB and the residual columns by
at most 2.3e-13 of their largest value.  64 rows of the two const1 runs
changed between zero and nonzero, all Fourier residuals of rounding size
(at most 4.1e-13); 45 of them are now exactly 0, and 19 now nonzero.

The ``signal`` digest was regenerated once more when the hyperslab family
became a ``LinearFamily`` and each residual it reports became the norm of
the step row it returns, sqrt(d . d) summed as the run sums ||p - x||,
in place of |s| ||a||: the two differ in the last bits, which broke L = 1
at M = 1.  The ``toy`` digest did not move: its unit normals give the
same bits either way.  Against the previous code the final iterates of
the golden runs moved by at most 1.4e-15, their dB columns by at most
1.8e-14 dB and their residual columns by at most 3.3e-15, with no row
changed between zero and nonzero.  On desk seed 3 at M = 1, 4 and 16
with 1,500 iterations and the four strategies, the final iterates moved
by at most 1.3e-15, the residual columns by at most 2.5e-15 and the dB
columns by at most 2.7e-12 dB (at -63 dB, where a shift of 9e-16 in the
reference weighs most).  Four rows of the M = 16 const1 run changed
between an all-fixed batch and one member moving by rounding (residual
at most 4.1e-16), so that L read 16 against 1.

The ``sgd`` digest was regenerated when the quadratic family began to keep
its members' minimizers t_k = c + w_k, so that a step takes x - gamma (x -
t_k) in place of x - gamma ((x - c) - w_k).  Against the previous code the
final iterates of its two runs moved by at most 1.1e-16, the residual
column by at most 1.2e-14 relative (2.3e-16 absolute), with no row changed
between zero and nonzero, and the iter and lambda columns not at all; both
runs' ``final_residual`` in ``summary.json`` moved in the last digit.

The ``toy`` and ``signal`` digests were regenerated when the run loop began
to write the dB of the final iterate into the trace footer of every run
with a reference point, as ``# final_norm_err_db=...``, and ``summary.json``
began to read its ``final_norm_err_db`` from there.  Each per-run trace CSV
of those two commands gained that one footer line; no CSV row, no record
dump and no ``summary.json`` value changed.  The ``km``, ``sgd`` and
``image`` digests did not move: their runs have no reference.
"""

import hashlib

import pytest

from stochfeas import experiments
from stochfeas.cli import EXIT_OK, main

from conftest import timing_free_text

CASES = {
    "toy": (["toy", "--dump-records"],
            "7e21ff6aa13ecf819f127cdf5168c2d4008b9010f8bc40b4e092f1603d89a2cf"),
    "km": (["km", "--iters", "300", "--relaxation", "const:0.5",
            "--noise-c", "1.0", "--noise-q", "1.5"],
           "0fbf429a7c7f83e7578451c1f225d6bb31d6c88fda9c0883fd137d90b81cb571"),
    "sgd": (["sgd", "--iters", "2000", "--repeats", "2"],
            "3d44aa423e80dc595faaaa6799aaba8ca13a3a0cc4f10ae5500d5bab39e6ea0d"),
    "signal": (["signal", "--scale", "desk", "--M", "4", "--iters", "60", "--repeats", "2"],
               "35b240d4718414597ba91633967e916e40d4036fc41db2d2c2e436fc61128c6c"),
    "signal-records": (["signal", "--scale", "desk", "--M", "4", "--iters", "60", "--repeats", "2",
                        "--dump-records"],
                       "1c16d1ad57e92f0304d06f13b4ac183740bdb4a4e729a3dbb6ec9202881d33e1"),
    "image": (["image", "--scale", "desk", "--iters", "40"],
              "3ef6d0ca87d92628038c79ce8f0bb0245a51c45803bf774e65451494fa994915"),
}


def artefact_digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + timing_free_text(path).encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artefacts_match_golden_digest(name, tmp_path):
    argv, expected = CASES[name]
    out_dir = tmp_path / name
    assert main(argv + ["--seed", "3", "--output-dir", str(out_dir)]) == EXIT_OK
    assert artefact_digest(out_dir) == expected


# the desk signal problem has 256 coordinates, so the tape of a 60-iteration
# recording pass takes 60 x 256 x 8 bytes
@pytest.mark.parametrize("name, cap, taped", [
    pytest.param("signal", 60 * 256 * 8, True, id="at-the-cap"),
    pytest.param("signal", 60 * 256 * 8 - 1, False, id="over-the-cap"),
    pytest.param("signal-records", None, False, id="records"),
])
def test_recording_pass_reruns_over_the_tape_cap_or_with_records(name, cap, taped, tmp_path,
                                                                 monkeypatch):
    # both sides of the fallback write the golden artefacts
    if cap is not None:
        monkeypatch.setattr(experiments, "_TAPE_BYTES", cap)
    tapes = []
    run_block = experiments.run_block

    def observed(*args, tape=None, **kwargs):
        tapes.append(tape)
        return run_block(*args, tape=tape, **kwargs)

    monkeypatch.setattr(experiments, "run_block", observed)
    argv, expected = CASES[name]
    out_dir = tmp_path / name
    assert main(argv + ["--seed", "3", "--output-dir", str(out_dir)]) == EXIT_OK
    assert artefact_digest(out_dir) == expected
    # two passes for each of two repeats of four strategies, each pair
    # sharing one tape or none
    assert len(tapes) == 16
    assert all((tape is not None) == taped for tape in tapes)
    assert all(tapes[i] is tapes[i + 1] for i in range(0, 16, 2))
