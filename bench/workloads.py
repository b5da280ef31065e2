"""Workload definitions: the qslora command lines each workload runs.

Every workload is a closed loop from one client: the benchmark starts one
qslora process per iteration and starts the next only after it has ended.
The program receives only the command lines built here; the benchmark seed
picks one of VARIANTS master seeds, so the committed digest table can say
whether a run reproduced the seed commit's random stream. A workload's
"calibration" names the bench/calibrate.py kernel of its shape: array2 and
array for the numpy-bound sweeps at two and one worker, interp for the
interpreter-bound reference.
"""

from __future__ import annotations

VARIANTS = 16
# Master seed of the committed delta_s > 0 reference tables. It lies outside
# the 1..VARIANTS range the benchmark hands to the program, so a reference
# estimate is always independent of the estimate it checks.
REFERENCE_SEED = 7777

# sf 4-7 x both waveforms x all six delta_s values of the default grid, with
# the SNR axis cut to 4 and 16 dB and trials-max to 5000, so that an
# iteration takes a few seconds and a run holds several. 5000 is not a
# multiple of the 4096-trial chunk, so every point that is not stopped early
# ends on a truncated chunk; all 4 dB points stop early, most 16 dB points
# run both chunks.
GRID_SWEEP = (
    "sweep", "--sf", "4,5,6,7", "--waveform", "rect,rc",
    "--delta-s", "0,0.2,0.4,0.6,0.8,1", "--snr", "4:16:12",
    "--trials-max", "5000", "--min-errors", "100", "--workers", "2",
)
# sf 10 at 11 dB, where the synchronous SER is about 0.11. No early
# stopping, so the work is one full 4096-trial chunk per point whatever
# the random stream.
SF10_SWEEP = (
    "sweep", "--sf", "10", "--waveform", "rect,rc", "--delta-s", "0,1",
    "--snr", "11:11:1", "--trials-max", "4096", "--min-errors", "0",
    "--workers", "1",
)
CERTIFY = ("certify", "--sf", "4,5", "--waveform", "rect,rc", "--trials", "50")
# One SNR per sf, and no sf 12: the mpmath sum takes 5-9 s per SNR at sf 12,
# which would leave too few iterations in a run for a steady median. sf 11
# runs the same code at a quarter of the cost.
ORACLE = ("oracle", "--sf", "4,5,6,7,8,9,10,11", "--snr", "10:10:1")

WORKLOADS = {
    "grid-w2": {
        "why": "many small sweep points at 2 workers: early stopping, "
        "truncated last chunks and speculative chunk submission dominate",
        "kind": "sweep",
        "calibration": "array2",
    },
    "sf10-w1": {
        "why": "kernel-bound single-worker sweep at sf 10: 64 MB chunk arrays, "
        "fixed trial count, both delta signs and the synchronous path",
        "kind": "sweep",
        "calibration": "array",
    },
    "reference": {
        "why": "certify and oracle only: continuous-time matched filter, "
        "quadrature and the mpmath SER sum; the Monte-Carlo does no work",
        "kind": "reference",
        "calibration": "interp",
    },
}


def master_seed(seed: int) -> int:
    """Master seed handed to qslora for a benchmark --seed."""
    return 1 + seed % VARIANTS


def invocations(workload: str, seed: int, output: str) -> list[list[str]]:
    """qslora command lines (without the program name) for one iteration."""
    ms = str(master_seed(seed))
    if workload == "grid-w2":
        return [[*GRID_SWEEP, "--seed", ms, "-o", output]]
    if workload == "sf10-w1":
        return [[*SF10_SWEEP, "--seed", ms, "-o", output]]
    if workload == "reference":
        return [[*CERTIFY, "--seed", ms], list(ORACLE)]
    raise ValueError(f"unknown workload {workload!r}")


def with_flag(argv: list[str], flag: str, value) -> list[str]:
    """Copy of a command line with the value after flag replaced."""
    out = list(argv)
    out[out.index(flag) + 1] = str(value)
    return out


def certify_chips(argv: list[str]) -> int:
    """Matched-filter chip evaluations one certify command line performs."""
    sfs = [int(s) for s in argv[argv.index("--sf") + 1].split(",")]
    waveforms = argv[argv.index("--waveform") + 1].split(",")
    trials = int(argv[argv.index("--trials") + 1])
    return sum(trials * (1 << sf) for sf in sfs) * len(waveforms)
