import dataclasses
import pickle

import numpy as np
import pytest

from multistep import schema
from multistep.errors import ConfigError

TABLE = {
    "n": schema.Int(1, default=3),
    "rate": schema.Real(gt=0, lt=1),
    "count": schema.Int(0, default=None),
    "mode": schema.OneOf(("a", "b"), default="a"),
    "flag": schema.Bool(default=False),
    "when": schema.DATETIME,
    "inner": schema.Table({"x": schema.Real(ge=0, default=0.5), "y": schema.Int(0)}),
    "steps": schema.Seq(schema.Int(1), "a list of integers >= 1"),
}


def doc(**changes):
    base = {"rate": 0.5, "when": "2011-01-01T00:00:00", "inner": {"y": 2}, "steps": [1, 2]}
    return {**base, **changes}


class TestCheck:
    def test_fills_defaults_and_keeps_values_as_given(self):
        given = doc(rate=1e-3)
        out = schema.check(given, TABLE)
        assert out == {"n": 3, "rate": 1e-3, "count": None, "mode": "a", "flag": False,
                       "when": "2011-01-01T00:00:00", "inner": {"x": 0.5, "y": 2},
                       "steps": [1, 2]}
        assert given == doc(rate=1e-3)  # the input is not filled in place
        # an integer where a real is asked for stays an integer, so it echoes as written
        assert type(schema.check(doc(inner={"x": 1, "y": 2}), TABLE)["inner"]["x"]) is int

    def test_unknown_and_missing_keys_are_named_together(self):
        bad = doc(extra=1)
        del bad["rate"]
        with pytest.raises(ConfigError, match=r"^keys missing \['rate'\], unknown \['extra'\]$"):
            schema.check(bad, TABLE)

    def test_absent_nested_object_names_its_own_missing_keys(self):
        bad = doc()
        del bad["inner"]
        with pytest.raises(ConfigError, match=r"^inner keys missing \['y'\], unknown \[\]$"):
            schema.check(bad, TABLE)

    @pytest.mark.parametrize("key, value, message", [
        ("n", 2.0, "n must be an integer >= 1, got float 2.0"),
        ("n", True, "n must be an integer >= 1, got bool True"),
        ("n", 0, "n must be an integer >= 1, got int 0"),
        ("rate", float("nan"), "rate must be a finite real > 0 and < 1, got float nan"),
        ("rate", "0.5", "rate must be a finite real > 0 and < 1, got str '0.5'"),
        ("rate", 1, "rate must be a finite real > 0 and < 1, got int 1"),
        ("count", -1, "count must be an integer >= 0 or null, got int -1"),
        ("mode", "c", "mode must be one of ['a', 'b'], got str 'c'"),
        ("flag", "no", "flag must be true or false, got str 'no'"),
        ("when", 5, "when must be an ISO datetime string, got int 5"),
        ("when", "yesterday", "when must be an ISO datetime string, got str 'yesterday'"),
        ("inner", [], "inner must be an object, got list []"),
        ("inner", {"y": -1}, "inner.y must be an integer >= 0, got int -1"),
        ("steps", [1, 0], "steps must be a list of integers >= 1, got list [1, 0]"),
    ])
    def test_a_value_not_of_its_kind_names_its_dotted_path(self, key, value, message):
        with pytest.raises(ConfigError) as exc:
            schema.check(doc(**{key: value}), TABLE)
        assert str(exc.value) == message

    def test_null_only_where_the_default_is_null(self):
        assert schema.check(doc(count=None), TABLE)["count"] is None
        with pytest.raises(ConfigError, match="n must be an integer >= 1, got NoneType None"):
            schema.check(doc(n=None), TABLE)

    def test_list_items_are_checked_at_their_index(self):
        table = {"layers": schema.Seq(schema.Table({"w": schema.Int(1)}), "a list of layers")}
        with pytest.raises(ConfigError, match=r"^layers\[1\]\.w must be an integer >= 1"):
            schema.check({"layers": [{"w": 1}, {"w": 0}]}, table, "")
        with pytest.raises(ConfigError, match=r"^net\.layers\[0\] keys missing \['w'\]"):
            schema.check({"layers": [{}]}, table, "net")

    def test_a_document_that_is_not_an_object(self):
        with pytest.raises(ConfigError, match="^document must be an object, got list"):
            schema.check([1], TABLE)
        with pytest.raises(ConfigError, match="^metadata must be an object, got NoneType"):
            schema.check(None, TABLE, "metadata")


Point = schema.record("Point", {"x": schema.Int(0, default=1), "y": schema.Real()},
                      {"x": schema.Int(0, default=2)}, z=schema.Int(0))


class TestRecord:
    def test_required_fields_come_first_in_row_order(self):
        assert [f.name for f in dataclasses.fields(Point)] == ["y", "z", "x"]
        assert Point(0.5, 3) == Point(y=0.5, z=3, x=2)

    def test_a_later_row_replaces_an_earlier_one_in_place(self):
        rows = {"a": schema.Int(0, default=1), "b": schema.Int(0, default=2)}
        record = schema.record("R", rows, a=schema.Int(5, default=7))
        assert [f.name for f in dataclasses.fields(record)] == ["a", "b"]
        assert record() == record(a=7, b=2)
        with pytest.raises(ConfigError, match="^a must be an integer >= 5, got int 1"):
            record(a=1)

    @pytest.mark.parametrize("changes, field", [({"y": float("nan")}, "y"), ({"z": -1}, "z"),
                                                ({"x": 1.5}, "x")])
    def test_building_checks_each_field_by_name(self, changes, field):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            Point(**{"y": 0.5, "z": 3, **changes})

    def test_an_object_row_stores_its_filled_copy_and_a_scalar_the_object_given(self):
        record = schema.record("R", {"section": schema.Table({"a": schema.Int(0, default=1)},
                                                             null=True), "y": schema.Real()})
        section, y = {}, float("0.5")
        built = record(section=section, y=y)
        assert built.section == {"a": 1} and section == {}
        assert built.y is y
        assert record(section=None, y=y).section is None

    def test_replace_checks_and_pickle_finds_the_class(self):
        point = Point(0.5, 3)
        assert dataclasses.replace(point, x=4) == Point(0.5, 3, 4)
        with pytest.raises(ConfigError, match="^x must be "):
            dataclasses.replace(point, x=-1)
        assert Point.__module__ == __name__
        assert pickle.loads(pickle.dumps(point)) == point


def test_is_int_takes_numpy_integers_but_no_bool():
    assert schema.is_int(3) and schema.is_int(np.int32(3))
    assert not any(schema.is_int(v) for v in (True, 3.0, "3", None))
