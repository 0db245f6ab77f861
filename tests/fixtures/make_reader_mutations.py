"""Write reader_mutations.json: valid LIBSVM text with random byte edits,
for the differential tests of the compiled reader (tests/test_reader.py).

Run from the repository root: python tests/fixtures/make_reader_mutations.py
The corpus is committed, so the tests do not depend on this generator.
"""

import json
import random
from pathlib import Path

BASE = (b"+1 1:0.5 3:-1.25e-3 10:7\n"
        b"-1 2:1e5 4:0.30000000000000004 5:0\n"
        b"\n"
        b"+1 1:9007199254740993 18:2.5E+10  \n"
        b"-1 3:0.1 12:123456789012345678 13:1.7976931348623157e308\n"
        b"+1 2:2.2250738585072014e-308 7:-0.0 9:0.12345678901234568")
ALPHABET = b"0123456789 \n:.eE+-\r\t\x00x\xff_#"


def mutants(count: int, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = bytearray(BASE)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(text))
            edit = rng.choice(("replace", "insert", "delete"))
            if edit == "delete":
                del text[pos]
            else:
                byte = rng.choice(ALPHABET)
                if edit == "replace":
                    text[pos] = byte
                else:
                    text.insert(pos, byte)
        out.append(bytes(text))
    return out


if __name__ == "__main__":
    corpus = [m.decode("latin-1") for m in mutants(400, seed=20190606)]
    path = Path(__file__).with_name("reader_mutations.json")
    path.write_text(json.dumps(corpus, indent=0) + "\n")
