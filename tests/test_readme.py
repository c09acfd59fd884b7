"""The settings-file examples of README.md are valid settings files."""

import pathlib
import re

from tribell.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def settings_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("### Settings files", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```json\n(.*?)```", section, flags=re.DOTALL)


def test_settings_examples_evaluate(capsys, tmp_path):
    examples = settings_examples()
    assert len(examples) == 2
    for i, example in enumerate(examples):
        path = tmp_path / f"example-{i}.json"
        path.write_text(example)
        code = main(["evaluate", "--settings", str(path)])
        assert code == 0, (example, capsys.readouterr().err)
