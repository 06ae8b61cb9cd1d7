"""Golden output: the stdout of fixed-seed commands, pinned by sha256.

Fractions print the same on every platform, so any change in an exact-backend
digest is a change in behaviour. The complex-backend digests also pin the
order of floating-point operations (a reassociated sum changes the last bits
of a value and so the printed record), but they depend on the platform's libm
as well: on another platform they may differ while the exact ones hold.
Regenerate a digest only when the output is meant to change, and say why."""

import hashlib

import pytest

from ellschub.cli import main

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
    ("verify duality --type B3 --backend complex --points 1", 0,
     "9a0e0436ebe529b8d86935d80b41507efb71820fea4b9e0b8d843e61d0891a8b"),
    ("verify recursions --type B2 --backend complex --points 1", 0,
     "70c5592c31e9b28eacdb2ab74bbd84d8b3ce2e1c8ce902fc57bfa4092c8e037b"),
    ("verify normalization --type A2 --backend complex --points 1", 0,
     "9817a0c47d2983462d20169321d6151322a6c087ab74f59241a67fa0c6818ade"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_digest(command, code, digest, capsys, monkeypatch):
    monkeypatch.delenv("ELLSCHUB_QORDER", raising=False)  # --qorder defaults to 8
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
