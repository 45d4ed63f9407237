import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_planted_bugs_each_apply_once():
    # checks/plant.py plants each bug by replacing its old text, so each
    # entry's old text must occur exactly once in its file
    spec = importlib.util.spec_from_file_location(
        "plant", os.path.join(ROOT, "checks", "plant.py"))
    plant = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plant)
    assert len({bug.name for bug in plant.CATALOGUE}) == len(plant.CATALOGUE)
    for bug in plant.CATALOGUE:
        with open(os.path.join(ROOT, bug.file), encoding="utf-8") as f:
            text = f.read()
        assert text.count(bug.old) == 1, bug.name
        assert bug.new != bug.old, bug.name
