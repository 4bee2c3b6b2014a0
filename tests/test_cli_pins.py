"""CLI outputs pinned byte for byte, each run in-process through cli.main.

Every pin names its argv, a wall-clock bound in seconds and the expected
outputs: stdout and any file the command writes under the test's
tmp_path, each either one exact line or "sha256:<hex>" of the bytes.
The two mul pins also run through `python -m mlmagma` in a fresh
interpreter, as do the tests of a reader that closes stdout early.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mlmagma
from mlmagma.cli import main

CYCLE_CONFIG = ('{"p": 2147483647, "params": [19,18,1,1,2], '
                '"seeds": [[0,1,5],[0,2,7]], "pattern": [0,1], '
                '"initial": [3,1,4]}')
# the best hit of the p = 37 seed search below, a maximal period
MAX37_CONFIG = ('{"p": 37, "params": [19,18,1,1,2], '
                '"seeds": [[0,1,0],[0,2,33]], "pattern": [0,1], '
                '"initial": [6,13,32]}')
# a singular pass with pass tail 2: composite tail 4, ending inside a
# pass of length 3, and period 18
TAIL7_CONFIG = ('{"p": 7, "params": [2,6,1,0,6], '
                '"seeds": [[1,3,5],[6,1,3]], "pattern": [0,0,1], '
                '"initial": [0,6,1]}')

BIG_P = "2147483647"
SWEEP_23 = "orbit sweep --p 23 --c 1 --d 1 --e 2"

PINS = {
    # the exact prng cycle: a period of ~2^32 at p = 2^31 - 1 at once
    "prng cycle at p = 2^31 - 1": (
        "prng cycle --config {tmp}/cycle.json", 60,
        {"stdout": '{"exceeded_cap": false, "period": 4294967292, '
                   '"state_space": 19807040600895968300706562046, '
                   '"tail": 0}'}),
    # a tail from the annihilator's power of X, ended by stepping
    # (f/X)(M)·v to the zero, and uniformity counts that fold a tail
    "prng cycle with a tail inside a pass at p = 7": (
        "prng cycle --config {tmp}/tail7.json", 60,
        {"stdout": '{"exceeded_cap": false, "period": 18, '
                   '"state_space": 1029, "tail": 4}'}),
    "prng uniformity with a tail inside a pass at p = 7": (
        "prng uniformity --config {tmp}/tail7.json --samples 1000", 60,
        {"stdout": '{"chi_square": [164.38000000000002, 166.70399999999995, '
                   '298.3739999999999], "max_relative_deviation": '
                   '1.3379999999999999, "p": 7, "samples": 1000}'}),
    # the 529-census sweep, each plane class passed once
    "orbit sweep at p = 23": (
        SWEEP_23, 60,
        {"stdout": "sha256:307477d5e112794f9b463ac212758cbd"
                   "442dd18b27308f222f8bdcff8627e174"}),
    # the same sweep's CSV and JSON files, through the census writers
    "orbit sweep files at p = 23": (
        SWEEP_23 + " --out {tmp}/sweep.csv --json {tmp}/sweep.json", 60,
        {"sweep.csv": "sha256:450c35d96f969fa802a9e9782199b194"
                      "f08670338ce9136262109f90c7b73414",
         "sweep.json": "sha256:bd12f4b830a77be709dd5c47eed3e393"
                       "b340d1f2bab8aca1123ccc0f93d242fb"}),
    # one census's CSV and JSON files, through CensusReport.csv_rows and
    # to_dict
    "orbit scan files at p = 23": (
        "orbit scan --p 23 --params 6,1,1,1,2 --out {tmp}/scan.csv "
        "--json {tmp}/scan.json", 60,
        {"stdout": "sha256:bcf44b594a70784f78e56d6d36eec688"
                   "4c557c91d1163b37efba39d747fb70af",
         "scan.csv": "sha256:90b2400472290c39c3cf3c2d9a7ac9f6"
                     "0e88d5b0a8dc5f2a454169a0201fb75f",
         "scan.json": "sha256:739597d25d2ef390a11ab83c9026710b"
                      "d92eec76b640a06ab7eb68b37e0759b1"}),
    # λ = 0: every plane has L = 0, so each split plane takes the
    # trace-zero row jump of _split_launches
    "lambda = 0 orbit scan at p = 127": (
        "orbit scan --p 127 --params 1,2,0,0,0", 60,
        {"stdout": "sha256:0bc75e501a355f0e25bed047b31319851"
                   "d2889f18546d186f6e92356f8c4bbc5"}),
    # a sweep above p = 64, its ≤ p² plane classes each passed once; a
    # cache that evicts them takes ~40 s
    "orbit sweep at p = 67": (
        "orbit sweep --p 67 --c 1 --d 1 --e 2", 30,
        {"stdout": "sha256:809a8f48cba1c76b23f4f9fa511b9b10"
                   "849ef3bfbaefaa1e2ae52019e85bb88d"}),
    # field-plane passes on Plane.unit_order
    "orbit scan at p = 127": (
        "orbit scan --p 127 --params 9,19,1,1,2", 60,
        {"stdout": "sha256:e434253d6277631e72568542419ef0c9"
                   "f59f575d45509bf1bd8630b1269770ef"}),
    # dual planes (Plane.dual_root, the nilpotent rows): every plane
    # dual, first with L = 0 throughout, then the zero form, where L takes
    # every value
    "all-dual orbit scan, L = 0, at p = 127": (
        "orbit scan --p 127 --params 0,0,0,0,0", 60,
        {"stdout": "sha256:f52451ffac94141d3ba25710dcb420a7"
                   "a8b1814cf053039f4fe25e3f110c7885"}),
    "all-dual orbit scan, zero form, at p = 127": (
        "orbit scan --p 127 --params 95,126,126,1,2", 60,
        {"stdout": "sha256:28a87da267c828c4d615033d42b7dc9e"
                   "8636ec9a939049ec14415ffc4af1a6dd"}),
    # orbit_length and pow_fast on Plane.power at p = 2^31 - 1; the pow
    # starts lie in a field, a split and a dual plane
    "orbit length at p = 2^31 - 1": (
        f"orbit length --p {BIG_P} --params 19,18,1,1,2 --a 3,1,4", 60,
        {"stdout": '{"cycle_rep": [0, 0, 0], "period": 9150170662961152, '
                   '"start": [3, 1, 4], "tail": 0}'}),
    "pow in a field plane at p = 2^31 - 1": (
        f"pow --p {BIG_P} --params 19,18,1,1,2 --a 3,1,4 "
        "--n 18446744073709551615", 60,
        {"stdout": "(1755568851,690911491,616162317)"}),
    "pow in a split plane at p = 2^31 - 1": (
        f"pow --p {BIG_P} --params 19,18,1,1,2 --a 7,1,2 "
        "--n 18446744073709551615", 60,
        {"stdout": "(520166510,2032586574,1917689501)"}),
    "pow in a dual plane at p = 2^31 - 1": (
        f"pow --p {BIG_P} --params 19,18,1,1,2 --a 5,1,1252121119 "
        "--n 18446744073709551615", 60,
        {"stdout": "(1757836469,1974573506,152195413)"}),
    # the C12 seed search: Plane.unit_order for deg g <= 2, the cubic
    # kernel for 3
    "prng search at p = 37": (
        "prng search --p 37 --params 19,18,1,1,2 --pattern 0,1 "
        "--trials 500", 60,
        {"stdout": "sha256:c44b853bb6f755864b83d401d8fb0e33"
                   "d54582e5d82cddeb30df896f7590d236"}),
    # the best hit above: its bytes, and uniformity summaries whose whole
    # periods come in closed form and whose remainders, past half a
    # period, are stepped after a jump
    "prng bytes at p = 37": (
        "prng run --config {tmp}/max37.json --format bytes --count 65536", 60,
        {"stdout": "sha256:c42aec70c0ad26d58575fdfac74df746"
                   "6dc902a08426cbff802d9a595a0982bc"}),
    "prng uniformity of 2e5 samples at p = 37": (
        "prng uniformity --config {tmp}/max37.json --samples 200000", 60,
        {"stdout": "sha256:3c7c2e38a7da27137ae08234803ff4e4"
                   "80b0a9c0e587cea0f3bcbb959cb08d67"}),
    "prng uniformity of 1e6 samples at p = 37": (
        "prng uniformity --config {tmp}/max37.json --samples 1000000", 60,
        {"stdout": "sha256:d327ce3c8310865cb155282466cd1e7c"
                   "31390d341539de99517a145c6cfbf8ba"}),
    # the cubic's bound from its discriminant, where it saves most
    "prng search at p = 2^31 - 1": (
        f"prng search --p {BIG_P} --params 19,18,1,1,2 --pattern 0,1 "
        "--trials 100", 60,
        {"stdout": "sha256:e2b22337519e832c42287da95e1b64dc"
                   "983ad6c941de779518b4811892d7bc82"}),
    # the census search behind the benchmark's census op3_ms
    "orbit search at p = 61": (
        "orbit search --p 61 --params 31,30,1,1,2 --budget 122", 60,
        {"stdout": "sha256:c538ea576f7b55b892bed124ef4c64a4"
                   "3a8300cbeedcef3e2852cd1926cdea44"}),
    # the search's primitivity test where p + 1 = 2^31 has no odd prime,
    # where p + 1 has the odd primes 5, 6553 and 32771, and in dimension 4
    "orbit search at p = 2^31 - 1": (
        f"orbit search --p {BIG_P} --params 19,18,1,1,2 --budget 400", 60,
        {"stdout": "sha256:f8d268aa57188205aacab40414bda7ff"
                   "7961141acd4c5bff9f1dfaca94a21594"}),
    "orbit search at p = 2147483629": (
        "orbit search --p 2147483629 --params 19,18,1,1,2 --budget 400", 60,
        {"stdout": "sha256:4be9638e49c1dd4afbc8ef186abea6ff"
                   "58f91e9d226a0c0720e57af846e2e321"}),
    "orbit search in dimension 4 at p = 1009": (
        "orbit search --p 1009 --params 1,2,3,4,5,6,7,8,9 --budget 2018", 60,
        {"stdout": "sha256:846624936adcffac34a15e8a8274c565"
                   "eac613b14a037223f5e0e6d0604fbc3b"}),
    # an N = 0 ≠ T start: its period is ord_p(T), a scalar unit order
    "orbit length of an N = 0 start at p = 2^31 - 1": (
        f"orbit length --p {BIG_P} --params 19,18,1,1,2 --a 2147483634,2,1",
        60,
        {"stdout": '{"cycle_rep": [14, 1073741821, 1610612734], '
                   '"period": 97612893, "start": [2147483634, 2, 1], '
                   '"tail": 0}'}),
    # the a-monomial growth up to the deepest supported power, as
    # printed with tuple-keyed monomials
    "sym count up to n = 8": (
        "sym count --max-n 8", 60,
        {"stdout": "sha256:d3c17150c183b8460eef3439f93759e8"
                   "d19513f5d7a47a206fdf793a0fb2afb8"}),
    # the boxed product, also run through `python -m mlmagma` below
    "mul in dimension 3": (
        "mul --p 23 --params 9,19,1,1,2 --a 0,1,0 --b 0,0,1", 60,
        {"stdout": "(0,3,1)"}),
    "mul in dimension 4": (
        "mul --p 23 --params 1,2,3,4,5,6,7,8,9 --a 0,1,0,2 --b 0,0,1,3", 60,
        {"stdout": "(11,13,1,6)"}),
    # the boxed path in dimension 4: pow_fast's plane, checked against
    # pow_iter's stepped powers
    "pow in dimension 4 checked by iteration": (
        "pow --p 1009 --params 1,2,3,4,5,6,7,8,9 --a 5,1,0,2 --n 1000 "
        "--check-iter", 60,
        {"stdout": "(924,921,0,833)"}),
}


def matches(data: bytes, expected: str) -> bool:
    if expected.startswith("sha256:"):
        return "sha256:" + hashlib.sha256(data).hexdigest() == expected
    return data == expected.encode() + b"\n"


@pytest.mark.parametrize("name", PINS)
def test_cli_output_is_pinned(name, capsysbinary, tmp_path):
    command, seconds, expected = PINS[name]
    (tmp_path / "cycle.json").write_text(CYCLE_CONFIG)
    (tmp_path / "max37.json").write_text(MAX37_CONFIG)
    (tmp_path / "tail7.json").write_text(TAIL7_CONFIG)
    argv = [arg.format(tmp=tmp_path) for arg in command.split()]
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    out = capsysbinary.readouterr().out
    assert code == 0
    assert elapsed < seconds, f"{name} took {elapsed:.1f} s"
    for target, want in expected.items():
        data = out if target == "stdout" else (tmp_path / target).read_bytes()
        assert matches(data, want), (target, data[:200])


def _module_env():
    """The environment of a `python -m mlmagma` child: this checkout's
    package first on PYTHONPATH, and stdout block-buffered on a pipe, as
    a user's shell gives it, whatever PYTHONUNBUFFERED the tests run
    under."""
    src = str(Path(mlmagma.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_module_entry_point():
    """`python -m mlmagma` prints both mul pins and exits with code 2 on a
    refused modulus, with the error on stderr."""
    env = _module_env()

    def run(command):
        return subprocess.run([sys.executable, "-m", "mlmagma", *command.split()],
                              capture_output=True, env=env, timeout=60)

    for name in ("mul in dimension 3", "mul in dimension 4"):
        command, _, expected = PINS[name]
        done = run(command)
        assert done.returncode == 0, done.stderr
        assert matches(done.stdout, expected["stdout"]), (name, done.stdout)
    done = run("mul --p 22 --params 9,19,1,1,2 --a 0,1,0 --b 0,0,1")
    assert done.returncode == 2
    assert done.stdout == b""
    assert done.stderr == b"mlmagma: error: modulus 22 is not prime\n"


def test_prng_run_into_a_closed_pipe_exits_quietly(tmp_path):
    """A reader that stops after two lines (`| head -n 2`) closes the
    pipe: `python -m mlmagma` exits 0 on the BrokenPipeError, with
    nothing on stderr."""
    config = tmp_path / "max37.json"
    config.write_text(MAX37_CONFIG)
    with subprocess.Popen(
            [sys.executable, "-m", "mlmagma", "prng", "run", "--config",
             str(config), "--count", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_module_env()) as proc:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert lines == [b"step,x0,x1,x2\n", b"0,26,33,27\n"]
    assert code == 0
    assert err == b""


def test_closed_pipe_with_bytes_left_in_the_buffer_exits_quietly(tmp_path):
    """A write cut short when the reader leaves mid-write leaves bytes in
    stdout's buffer, which the flush at exit would fail on ("Exception
    ignored ... BrokenPipeError", code 120). No test can time that cut,
    so the child buffers one byte itself, waits until stdout's reader has
    closed, and only then runs `prng run`: it still exits 0 in silence."""
    config = tmp_path / "max37.json"
    config.write_text(MAX37_CONFIG)
    child = ("import sys; sys.stdin.read(); sys.stdout.buffer.write(b's'); "
             "from mlmagma.cli import main; sys.exit(main(sys.argv[1:]))")
    with subprocess.Popen(
            [sys.executable, "-c", child, "prng", "run", "--config",
             str(config), "--count", "2000"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=_module_env()) as proc:
        proc.stdout.close()
        proc.stdin.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 0
    assert err == b""
