"""`tools/make_font.py` still renders the bundled font.

The generator's checks pass on its glyph table, and the P1 text it renders
for each letter is the committed `src/noiseimaging/font/*.pbm` byte for
byte, so the font's properties that criterion 4 relies on stay reproducible.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FONT = ROOT / "src" / "noiseimaging" / "font"


def _tool():
    spec = importlib.util.spec_from_file_location("make_font", ROOT / "tools" / "make_font.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_generator_renders_the_bundled_font():
    tool = _tool()
    arrays = {letter: tool.to_array(rows) for letter, rows in tool.GLYPHS.items()}
    errors, _ = tool.check(arrays)
    assert errors == []
    rendered = {name: text.encode("ascii") for name, text in tool.render(arrays).items()}
    assert rendered == {path.name: path.read_bytes() for path in FONT.glob("*.pbm")}
    assert len(rendered) == 26
