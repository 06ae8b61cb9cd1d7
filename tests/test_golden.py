"""Golden output: the stdout of fixed-seed commands, pinned by sha256.

Fractions print the same on every platform, so any change in an exact-backend
digest is a change in behaviour. The complex-backend digests also pin the
order of floating-point operations (a reassociated sum changes the last bits
of a value and so the printed record), but they depend on the platform's libm
as well: on another platform they may differ while the exact ones hold.
Regenerate a digest only when the output is meant to change, and say why."""

import hashlib
import json

import pytest

from ellschub.cli import main
from peak_rss import forked_peak_rss

GOLDEN = [
    ("verify duality --type A2 --points 2 --qorder 4", 0,
     "ba81fbed4162ca7f2f0ca7b33014cb71c8ed94f0196f1d2601fc9e778650a545"),
    ("verify recursions --type B2 --points 1 --qorder 4", 0,
     "179efd6071db7e642d9ed8d391574c899dd8f9e6fb43e7e3bd906ffb96154348"),
    ("verify normalization --type B2 --points 1 --qorder 4", 0,
     "b5174201f184b3a4717f6f0f86c02b545d8002fe284a17e340e174c6ac9f727b"),
    ("verify double-dual --type B2 --points 1 --qorder 4", 0,
     "ca0cac46f0de419975f0f240c88bd7a8eafd0d8af150d38cbd2f0024502edbbd"),
    ("verify duality --type A1 --flip-sign", 1,
     "9a3baf6181800e8e68ae8a4f568b39023b4122fb49527963f96b7174e72acf53"),
    ("corpus --points 1 --qorder 4", 0,
     "eaf2d2719dc3ac680e32bc77e3e4abb67fdc00923a9730dfc80bfee6cf3ca052"),
    ("table --type B2 --word 1,2 --qorder 4 --format json", 0,
     "49a766c8d2aaf3638d4213e1774be7d0590e7795300b05fd2907bacec22188fd"),
    ("table --type B2 --word 1,2 --qorder 4 --format csv", 0,
     "3a1799cfadcbcab6523f1b88efca6d932ada49e90959205427928488893c51fc"),
    ("table --type B2 --word 1,2 --qorder 4 --format pretty", 0,
     "3742868d7055aa092515c857f325f2b550ac2f5bc7d805dd6bdde5c96b93c68e"),
    ("verify duality --type A2 --flip-sign --points 1", 1,
     "bf992f3b11522663fec8427e89e544f3fc6ee7fce1351d2e15454130e7ed4463"),
    ("table --type B3 --word 1,2,3,2,1,2,3,2,3 --qorder 10 --format json", 0,
     "146743db3b6583991e0f030d9c44103934aacefc34d40348972876f1f571e43e"),
    # The two digests above --qorder 10: every delta of this table has 25
    # terms, so it reads the exact delta's high powers of q.
    ("table --type B2 --word 1,2,1,2 --backend exact --qorder 24 --seed 1 --format csv", 0,
     "2e8d5a25c69623ea13043193b04c6238cdde13ecd75d56511b0cd4e71bd8990a"),
    # Order 36 has 9 divisors, so the top coefficient of every delta here is a
    # divisor sum of 9 terms.
    ("table --type A2 --word 1,2,1 --backend exact --qorder 36 --seed 2 --format csv", 0,
     "d1be239e184414aedcec35ed1503df8c056560cfb976b32bb3d7d6eabd628827"),
    ("verify duality --type B3 --backend complex --points 1", 0,
     "faed9b867feadf00fb0e20f18e9ac71c28eb6a774d05431ab636f4362ab5a9f5"),
    ("verify recursions --type B2 --backend complex --points 1", 0,
     "afeb3bb752fe074644c8dd7a967b9cc7aa6cd2fd500a3d92f37b551bdddef729"),
    ("verify normalization --type A2 --backend complex --points 1", 0,
     "f53df739cf7b46a806e190b0f4e03fa8fe393e4429f441b7a3e828955aa3c3ef"),
    # s* is trivial on B2, so this is the first exact digest where the
    # double-dual relabeling moves variables; the complex ones below pin the
    # product order of every change of variables and of the point draws.
    ("verify double-dual --type A2 --points 1 --qorder 4", 0,
     "59c18769f62db8db65bdd0f437516bdefc203f1225115106f5b97d6a89c150a8"),
    ("verify double-dual --type A3 --backend complex --points 1", 0,
     "06c21bd2794977746cb09108b14866688933d754179f4de18965cf0aba3012df"),
    ("verify normalization --type B2 --backend complex --points 1", 0,
     "c199f59253ef4b71539db0476dca4d25cdb5bb1d4fb3f5d9c5c086edf77ddd56"),
    ("corpus --backend complex --points 1", 0,
     "ba8a83c43200b6b838faa5f36922be7f6da1ccfca128749c40bf1664d16f2693"),
    ("table --type A3 --word 1,2,3,1 --backend complex --format json", 0,
     "069762189d76674ce4bc9eced44fe78c28d0c057d619aab9e25275e7c98cb1de"),
    ("verify duality --type G2 --backend complex --points 1", 0,
     "4ea7a068621292e9dd334880c66c967c97779b3feecbc9b6b31f514c83e41260"),
    # The R-matrix and c-recursion paths on G2 (coroot exponents up to 3)
    # and at rank 3.
    ("verify recursions --type G2 --points 1 --qorder 4", 0,
     "bcb5a5c09f25eac0cda269b41b91c33302d062347700558db21141eea28bf5c8"),
    # The exact R-matrix on type C, whose short and long roots swap places
    # against B.
    ("verify recursions --type C3 --backend exact --qorder 4 --points 1 --seed 0", 0,
     "64e86c582875e2272c5ef360ebbfa94f3906aaaf20acea315f683c4937e44e88"),
    ("verify normalization --type G2 --points 1 --qorder 4", 0,
     "b3031993ac19af36528c7ebecafc43c4c5944990bf272ee69c95b958a60a7780"),
    ("verify normalization --type G2 --backend complex --points 1", 0,
     "e40a85c7e47c1f94e5803fd054802f485ba85563e3e678a62ec91fa38459e99d"),
    ("verify normalization --type B3 --backend complex --points 1", 0,
     "ccb872c8409900cfdeb847710891598808b196f1f327d00b929a63b37ac3de2a"),
    # The normalization campaign at rank 4: 38592 checks.
    ("verify normalization --type D4 --backend complex --points 1", 0,
     "739cf5581fb7b5ce46a4be41ed71dcd1d710a3a7d6840debd96be6732306049e"),
    # Three of the four benchmark campaigns (perfbench/run.py) at seed 0;
    # the fourth, D4 complex duality, is test_benchmark_d4_complex_duality.
    ("verify duality --type A3 --backend exact --qorder 8 --points 3 --seed 0", 0,
     "d2802ab54c17f2c3add0e7ee267678aa14ab022258b66dfa64b0ab825902e962"),
    ("verify recursions --type B3 --backend complex --points 1 --seed 0", 0,
     "b1f76893a7fef6bf567daa894d137ed032d9ff64e8e6b11ab3eaa13cd846afae"),
    ("corpus --backend exact --qorder 8 --points 3 --seed 0", 0,
     "d0887615211732255fca6bda65af5006cab01a4322a8e1f3814f8c481f269891"),
    # Record text the passing campaigns above do not print: failing complex
    # records (157 of 576), failing normalization records with a "simple"
    # field (28 of 66) and a non-default q among the fixed fields.
    ("verify duality --type A3 --backend complex --tol 1e-15 --points 1", 1,
     "214acf1fbbe31ba374e3700d6751fe01024993d7af48dbcfba579bd60ebbb466"),
    ("verify normalization --type A2 --backend complex --tol 0 --points 1", 1,
     "8e8c5ffa371c8e59434d10e5b75db299caffcbff06911532253a8843e4ac4a9c"),
    ("verify duality --type B2 --backend complex --q -0.25 --points 2 --seed 4", 0,
     "72cbb0501b20ee3ecc5d37b94ee387adf9a57ceb5e21b0eec7b509845e2025f1"),
    # 4 false failures of 1152 at point 1 (residuals 1.3e-9 to 2.6e-9 against
    # the 1e-9 tolerance); the exact backend passes all 1152. The complex
    # verdicts that allow for cancellation (ROADMAP item 3) will re-pin this
    # digest.
    ("verify double-dual --type A3 --backend complex --points 2 --seed 3", 1,
     "097a7a459d5c39068db380dcb6eed2697376c481685cfa0935490b8bfb522693"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_digest(command, code, digest, capsys):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.tier2
def test_exact_d4_duality(capsys):
    """Exact D4 duality at one point: 36864 checks, digest recorded before
    the recursion steps became support-sparse."""
    assert main("verify duality --type D4 --backend exact --qorder 8 --points 1 "
                "--seed 0".split()) == 0
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    assert (summary["checks"], summary["failures"]) == (36864, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "49779fc4223f0eaf56e879aadc76592adbf909b926d33673ff7629edadd34333")


@pytest.mark.tier2
def test_exact_b3_duality_at_order_16(capsys):
    """Exact B3 duality at one point and q-order 16: 2304 checks, no failure,
    about 2 s. Its coefficients run to about twice the heights of the
    order-8 goldens, which the exact step arithmetic must carry as well;
    digest recorded before a step became one kernel call per coset."""
    assert main("verify duality --type B3 --backend exact --qorder 16 --points 1 "
                "--seed 0".split()) == 0
    out = capsys.readouterr().out
    summary = json.loads(out.splitlines()[-1])
    assert (summary["checks"], summary["failures"]) == (2304, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "aa0a1275ffa6a8edba99b15043ee7b1208e77984117d36b0847e6647d7227e97")


@pytest.mark.tier2
def test_benchmark_d4_complex_duality(capsys):
    """The D4 complex duality benchmark campaign at seed 0: 8 MB of stdout,
    exit 1 for the complex backend's false failures (4 of 36864)."""
    assert main("verify duality --type D4 --backend complex --points 1 "
                "--seed 0".split()) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "24c668115169096c7e3d5c4e5d131cf5fbe97e32627385734d1fb2f2a30dd23e")


@pytest.mark.tier2
def test_d4_complex_recursions(capsys):
    """The R-matrix and Bott-Samelson recursions at rank 4: 36864 checks, the
    digest recorded when the R-matrix steps began to read zeta_s^-1 as the
    value of the negated root at the table's own point, as every other root
    and coroot value is read."""
    assert main("verify recursions --type D4 --backend complex --points 1 "
                "--seed 0".split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5d624fbac2d0d2062abf6ca97a6e6fce4c83556ee2e070c1cb671de8a8fde8ea")


def _file_digest(path):
    """(sha256 hex digest, summary record) of a campaign's --out file, read in
    chunks so that a test keeps no whole copy of the records; the file is
    removed."""
    digest, tail = hashlib.sha256(), b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            tail = (tail + chunk)[-256:]
    path.unlink()
    return digest.hexdigest(), json.loads(tail.splitlines()[-1])


@pytest.mark.tier2
def test_f4_complex_duality(tmp_path):
    """F4 complex duality at one point: 1327104 checks and 343 MB of records,
    written to a file and hashed in chunks so that the test keeps no captured
    copy of them. Exit 1 for the complex backend's false failures (9255); the complex
    verdicts that allow for cancellation (ROADMAP item 3) will re-pin it."""
    out = tmp_path / "f4.jsonl"
    assert main(f"verify duality --type F4 --backend complex --points 1 --seed 0 "
                f"--out {out}".split()) == 1
    digest, summary = _file_digest(out)
    assert (summary["checks"], summary["failures"]) == (1327104, 9255)
    assert digest == "8ee90f32f06c6ee8d1f3ce97260cc1a8559f5eb19bd2d3372261db1abd7a8c68"


@pytest.mark.tier2
@pytest.mark.parametrize("label,expected", [
    ("B4", "4c2a7392db87cdbbd87d8ae894c3cc3a45c6dd970b85b86023bce58999da2dd7"),
    ("C4", "15b4964849067e42aadf0305d89da50a90e6e401ab01d7bc0715ae7d2ea98aa2"),
], ids=["B4", "C4"])
def test_exact_rank4_duality_where_the_dual_differs(label, expected, tmp_path):
    """Exact duality at one point on B4 and C4, where G^v is not G: 147456
    checks each, no failure, about 25 s per type. Run in a fresh process so
    that its peak RSS is its own: 86 MB on x86-64 Linux, CPython 3.11, with
    the source grid the one grid a point keeps, against 152 MB with both."""
    out = tmp_path / f"{label}.jsonl"
    code, peak_mb = forked_peak_rss("verify", "duality", "--type", label, "--backend", "exact",
                                    "--qorder", "8", "--points", "1", "--seed", "0",
                                    "--out", str(out))
    assert code == 0
    digest, summary = _file_digest(out)
    assert (summary["checks"], summary["failures"]) == (147456, 0)
    assert digest == expected
    assert peak_mb < 100
