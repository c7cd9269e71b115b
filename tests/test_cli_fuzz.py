"""`cli.main` on mutated instance files: whatever the damage, `kernelize`
and `solve` end with a documented exit code and never print a traceback."""
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowkernel.cli import main
from rainbowkernel.instances import (GeneratorConfig, generate_instance,
                                     serialize_instance)

#: one small serialized instance per problem
SEEDS = [serialize_instance(generate_instance(GeneratorConfig(problem, family, n=7, k=2), 3))
         for problem, family in (("TPT", "uniform"), ("FVST", "uniform"),
                                 ("I2PP", "gnp"), ("I2PHS", "gnp"))]

#: tokens to insert.  The numbers are small, so a mutated header never asks
#: the exact solvers or the graph matrix for much, but for one 400-digit
#: number: as k it overflows the float kernel bound, and as a vertex count
#: it is rejected before anything is allocated
TOKENS = ("0", "1", "2", "7", "-1", "-", "01", "x", "1.5", "9" * 400, "problem", "k",
          "graph", "tournament", "TPT", "I2PHS")

#: (line, token) of each header field and the values it may take: an insert
#: or a delete almost never leaves a token in a field's place, so an example
#: either rewrites one field or edits lines
HEADER_FIELDS = {"problem": (0, 1), "k": (0, 3), "n": (1, 1)}
NUMBERS = ("0", "1", "2", "7", "-1", "01", "9" * 400)
HEADER_VALUES = {"problem": ("TPT", "FVST", "I2PP", "I2PHS"), "k": NUMBERS, "n": NUMBERS}


@st.composite
def mutated(draw):
    lines = draw(st.sampled_from(SEEDS)).splitlines()
    field = draw(st.none() | st.sampled_from(sorted(HEADER_FIELDS)))
    if field is not None:
        at, spot = HEADER_FIELDS[field]
        tokens = lines[at].split()
        tokens[spot] = draw(st.sampled_from(HEADER_VALUES[field]))
        lines[at] = " ".join(tokens)
        return "".join(line + "\n" for line in lines)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if not lines:
            break
        op = draw(st.sampled_from(("insert", "delete", "drop", "shuffle")))
        at = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if op == "shuffle":  # the lines from `at` on; after the header, a valid file stays valid
            lines[at:] = draw(st.permutations(lines[at:]))
        elif op == "drop":
            del lines[at]
        else:
            tokens = lines[at].split()
            spot = draw(st.integers(min_value=0, max_value=len(tokens)))
            if op == "insert":
                tokens.insert(spot, draw(st.sampled_from(TOKENS)))
            elif tokens:
                del tokens[min(spot, len(tokens) - 1)]
            lines[at] = " ".join(tokens)
    return "".join(line + "\n" for line in lines)


@given(text=mutated(), command=st.sampled_from(("kernelize", "solve")))
@settings(max_examples=600, deadline=None)
def test_mutated_instance_exits_cleanly(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        path.write_text(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command, "--input", str(path)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
