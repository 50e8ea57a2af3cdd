"""The frozen output contracts as one checked manifest.

Each entry is the SHA-256 of one output's stdout, with a short digest of
each line that locates the first changed line when the whole digest
misses.  The outputs are:

- criterion 10's seven CLI commands (test_acceptance.py);
- ``device mc --samples 20000 --seed 9`` at ``--scale`` 0.5 and 2;
- each demo under ``demos/``;
- ``bench run`` for every kernel x mode pair at default sizes.

A change that moves an output either is a bug or re-records that entry:
``PYTHONPATH=src python tests/test_contracts.py`` prints the manifest of
the current tree, and CHANGES.md names each changed entry with its
reason.

Float risk: ``device mc`` prints the margins with ``repr``, and the demos
print rates and currents.  The digests therefore assume that the numpy
and scipy builds of every CI Python produce the same float sums, the
assumption the ``FailureReport`` ``repr`` pins already make.  If CI shows
that they do not, hash the integer fields and round the floats, and say
which is which.
"""

import hashlib
import io
import runpy
import tempfile
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sttcim.bench import KERNEL_MODES
from sttcim.cli import main

_DEMOS = Path(__file__).resolve().parent.parent / "demos"

_ASM = (  # criterion 10's loop
    "    ADDI r1, r0, 0\n    ADDI r2, r0, 1024\n    ADDI r3, r0, 32\n"
    "loop:\n    LDW r5, 0(r1)\n    LDW r6, 0(r2)\n    ADD r7, r5, r6\n"
    "    STW r7, 0(r1)\n    ADDI r1, r1, 1\n    ADDI r2, r2, 1\n"
    "    BNE r1, r3, loop\n    HALT\n"
)

_COMMANDS = {
    "device mc": ["device", "mc", "--samples", "20000", "--seed", "9"],
    "ecc prove": ["ecc", "prove", "--code", "ec3ed4", "--data-bits", "8",
                  "--trials", "300", "--seed", "4"],
    "array selftest": ["array", "selftest", "--words", "32", "--seed", "2"],
    "map plan": ["map", "plan", "--pattern", "type3", "--n", "640", "--m", "2"],
    "xform": ["xform", "{asm}", "--pattern", "type1", "--n", "32"],
    "bench run": ["bench", "run", "--kernel", "vecsum", "--n", "256", "--seed", "7"],
    "bench sweep": ["bench", "sweep", "--kernel", "vecsum", "--mode", "cim",
                    "--latencies", "1,4", "--n", "128"],
    "device mc --scale 0.5": ["device", "mc", "--samples", "20000", "--seed", "9",
                              "--scale", "0.5"],
    "device mc --scale 2": ["device", "mc", "--samples", "20000", "--seed", "9",
                            "--scale", "2"],
    **{f"bench run {kernel}/{mode}": ["bench", "run", "--kernel", kernel, "--mode", mode]
       for kernel, modes in KERNEL_MODES.items() for mode in modes},
}

_NAMES = [*_COMMANDS, *(f"demo {p.name}" for p in sorted(_DEMOS.glob("*.py")))]

MANIFEST = {
    "device mc": (
        "654bb2dd254c4d8601443bd0a6a7f3e08ea8617d7d110b82aec88c39d27ad3f1",
        "7002bf32 51fc58b5 "),
    "ecc prove": (
        "a3bf42a580da709751fdff6efbba565cde0e4562e5767890333dec27aa398ca7",
        "2c4e1f71 c15e15cd 0af2b5d2 499c2712 "),
    "array selftest": (
        "8ca81c190e5fc6399ce22e2b96cf14980d66403aeb9869e0bb227e107922f983",
        "1b0b1be5 "),
    "map plan": (
        "2dc0f77739d9a5f4799c8e36722e5c403e4d920a20cdd10c8c0947bc42d38162",
        "5cc04a34 f241a6c0 69c80300 a46c93d7 48beaee4 "),
    "xform": (
        "7d9ecb74bed1b16f22b2ec68fd40ae108d1c329dd64df76682b74e31ea34fb5c",
        "6826d174 f0736fbc 53405508 26b1377a 3d9b4fe0 7e649180 26f9a405 1c25964c "
        "144dc60b 53019ce7 4f1afb87 fa8a1a3c "),
    "bench run": (
        "2a090aaac115727855c0dd62659426ed1e8ce98c63c5283c26f005846170a620",
        "0599056b f5619270 eb69f8c5 5e88ee09 "),
    "bench sweep": (
        "72b2ada66c4e57a93613b87a38f9b13939531d44b391357b9f8db916a0d7e074",
        "fab43cc3 241e5798 daa88be7 "),
    "device mc --scale 0.5": (
        "665efd18563e556e618f332b8226d7919d48e47e11457926403757b17c3bab9b",
        "7002bf32 4e0832f3 "),
    "device mc --scale 2": (
        "e3622abe43cdba81c129a27e3ca0223901193929d273bc3c8a4321349e2f6f53",
        "7002bf32 fec07779 "),
    "bench run xorcipher/base": (
        "be0897f431038873930cfe462f78ab89b53d36013c18e14eb4fe18078bc1d4bd",
        "f7c698d0 "),
    "bench run xorcipher/cim": (
        "af68c3b0aacee12b2a973c76fc636ceaa1185379ee2d3fde19e5aeb43bea54d3",
        "e946c378 "),
    "bench run blit/base": (
        "30b80540199883808b86cecd92c82e22aef0f6f6d97a4dfd9fddcda97f9c18df",
        "d70ed11b "),
    "bench run blit/cim": (
        "db6c2c33c9b0f56166f1fc3a6ee8b7bc0f99091fc95247eab389821d622c232c",
        "416ad839 "),
    "bench run vecsum/base": (
        "a8f6c323121d1b47db41cb53e96a54e43f5b89bc5dca9e0dd4824943947d1abe",
        "b7ea70d9 "),
    "bench run vecsum/cim": (
        "04fd3a6f94337796051238dc08b21d65fa5a440606e71a29756b36987465e1e2",
        "e8765700 "),
    "bench run vecsum/vec4": (
        "b7484bac5e58ef2179fb72087fb7c781c300261641409bca25521f38c334aa50",
        "2d2833d3 "),
    "bench run vecsum/vec8": (
        "abd0dae24931d5c1c4f8f1ae3ea1eb4d83a60ce565e5db24ec2b6688e149397c",
        "7d376070 "),
    "bench run strmatch/base": (
        "4e77babbafa041fc72d2a56697116b96a22f099be6a1f45bb9a91ba10b437a4d",
        "aff40626 "),
    "bench run strmatch/cim": (
        "fc2e1f34111e6868ab231e584ab5eb53f70091e04e2d3907e07c49cf094c0786",
        "dd5b1ad4 "),
    "bench run editdist/base": (
        "27b688d4611ceb1217257b5bf177bebf14387342b353969f59aff727d1dc2ae1",
        "c47b0dca "),
    "bench run editdist/cim": (
        "f54a8d9f4f5e7be5f3ff2ceed18075a792a3e9d2916efb9a579f2a6be56c6867",
        "fbdd186e "),
    "bench run editdist/vec4": (
        "ed9b02a4f34e6e28b8eec8d4e3200517e715ffd5ea77a71303a08951072d00d7",
        "74d0d975 "),
    "bench run editdist/vec8": (
        "8375954797c85b03eeecd23acc336e38d3fcf4dd3e404621f5b16db78a44c85f",
        "f26cfd00 "),
    "bench run saxpy_add/base": (
        "53e7564401e395d42d7a6be76371c5cad351a2f6601cde64188764aeaef1b2ba",
        "ef85abe3 "),
    "bench run saxpy_add/cim": (
        "6970259ee1f499b98db4e678da960f2639f31b66096a6de3422c942c5edd7ace",
        "0adf3732 "),
    "bench run saxpy_add/vec4": (
        "92b4d155aade99efb24489da593ef955e9f4c63306210c39effaef65ce1f2445",
        "23043a55 "),
    "bench run saxpy_add/vec8": (
        "075a448b6b45f692a687e24792f04324566c695e17ca63e6f2689b8f4e88a789",
        "6296818c "),
    "demo 01_sensing_and_logic.py": (
        "12592ee4b034d8f4182c5caf2be40fc2f01906993b400a6d4d845348e734bd27",
        "13b0fff5 631608df e5d0e499 ab78ffd7 e3b0c442 7e6985ea 37c8e2a0 0cc1d301 "
        "7129e14c e9fd8899 195e285a e3b0c442 e99bd10d 116c9df3 c9801c6a fb71e1c0 "
        "a0fd8e1b e3b0c442 df9642f8 a9691bc5 67b8d8ff 77d66de3 b17c2c18 5d77c0ab "
        "b50de55d 3ed0423c ea732056 "),
    "demo 02_process_variation.py": (
        "c88b6fc46f58bd459e4ffdc79e102bffbf1bdcf6b08bd0925528bd2640c12d1d",
        "c6ab96cf 84ae37ca c4510190 3b185e4a 4fc86ee3 3b612f6d e3b0c442 c54660ac "
        "16c605f6 23d3cddc 0da8791c e8bebcf1 "),
    "demo 03_error_correction.py": (
        "5235d5ce69b9f45a9e0b048ba0426ff636b94932b8e7020a74416fc171689a2b",
        "a8bb18ff c8756e23 e3b0c442 799bdef3 93656a76 69b3c101 4031561d 5c2fb2fd "
        "e3b0c442 7d390cbc 350cec45 23f87751 "),
    "demo 04_programs_and_transform.py": (
        "d9a29c12a12b21832f79d7a8401b523ba08bad2e38ddf0b32a885dd6be71ac38",
        "93563f87 1be17a3f e3b0c442 53405508 26b1377a 28b8ec12 8a746f89 7e649180 "
        "6117a0f6 b7e949ed 144dc60b 53019ce7 f9efc747 70ae2765 3bceb0cd fa8a1a3c "
        "e3b0c442 e3b0c442 9f3c66e6 bb739c19 e3b0c442 5f2fd687 711784d2 "),
    "demo 05_benchmarks.py": (
        "86d5e9c5696846da6122b92adb5cd114f06dc85789f814e4eac43882af47fdb6",
        "f7c698d0 e946c378 e3b0c442 d70ed11b 416ad839 e3b0c442 b7ea70d9 e8765700 "
        "2d2833d3 7d376070 e3b0c442 aff40626 dd5b1ad4 e3b0c442 c47b0dca fbdd186e "
        "74d0d975 f26cfd00 e3b0c442 ef85abe3 0adf3732 23043a55 6296818c e3b0c442 "
        "e12a5bd8 86c0e396 31d9dd68 fd484af3 83247975 a96715aa 4c7acb67 e3b0c442 "
        "921e67b3 e3b0c442 ddc2b9ee da4b6612 07239262 cad029ba "),
}


def _output(name: str) -> str:
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(buf):
        if name.startswith("demo "):
            runpy.run_path(str(_DEMOS / name.removeprefix("demo ")), run_name="__main__")
        else:
            asm = Path(tmp) / "k.asm"
            asm.write_text(_ASM)
            assert main([arg.format(asm=asm) for arg in _COMMANDS[name]]) == 0, name
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _line_digests(text: str) -> list[str]:
    return [_digest(line)[:8] for line in text.splitlines()]


def test_manifest_names_every_output():
    assert list(MANIFEST) == _NAMES


@pytest.mark.parametrize("name", _NAMES)
def test_output_matches_manifest(name):
    text = _output(name)
    digest, lines = MANIFEST[name]
    if _digest(text) == digest:
        return
    got, want = _line_digests(text), lines.split()
    first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
    line = text.splitlines()[first] if first < len(got) else "<end of output>"
    pytest.fail(f"{name}: output differs from line {first + 1}: {line!r}")


if __name__ == "__main__":
    print("MANIFEST = {")
    for name in _NAMES:
        text = _output(name)
        chunks = textwrap.wrap(" ".join(_line_digests(text)), 72) or [""]
        print(f'    "{name}": (\n        "{_digest(text)}",')
        print("\n".join(f'        "{chunk} "' for chunk in chunks) + "),")
    print("}")
