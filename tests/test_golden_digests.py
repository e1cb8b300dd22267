"""``scripts/golden_digests.py compare``: every differing name, a count line and the exit code."""

import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_digests.py"
A, B, C = (hashlib.sha256(x).hexdigest() for x in (b"a", b"b", b"c"))


def compare(tmp_path, old: dict, new: dict):
    """Run ``compare`` on two digest lists written from {name: digest}."""
    paths = []
    for fname, listing in (("old.txt", old), ("new.txt", new)):
        path = tmp_path / fname
        path.write_text("".join(f"{digest}  {name}\n" for name, digest in sorted(listing.items())))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "compare", *paths], capture_output=True, text=True
    )


def test_identical_lists_differ_in_no_file(tmp_path):
    listing = {"fig3/fig3_result.txt": A, "fig4/fig4_result.txt": B, "jumped/jumped_result.txt": C}
    proc = compare(tmp_path, listing, dict(listing))
    assert proc.returncode == 0
    assert proc.stdout == "0 of 3 files differ\n"


def test_a_changed_and_an_absent_name_are_printed_with_their_prefixes(tmp_path):
    old = {"depol/depol_result.txt": C, "fig3/fig3_result.txt": A, "fig4/fig4_result.txt": B}
    new = {"fig3/fig3_result.txt": A, "fig4/fig4_result.txt": C}
    proc = compare(tmp_path, old, new)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        f"depol/depol_result.txt: {C[:8]} -> absent",
        f"fig4/fig4_result.txt: {B[:8]} -> {C[:8]}",
        "2 of 3 files differ",
    ]
