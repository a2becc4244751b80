//! Contract of the derive macros' `#[serde(...)]` attributes, checked on
//! the `Content` model.

// The traits come in anonymously: with the `derive` feature on, `serde`
// re-exports the macros under the same names.
use serde::{Content, DeError, Deserialize as _, Serialize as _};
use serde_derive::{Deserialize, Serialize};

fn map(entries: &[(&str, Content)]) -> Content {
    Content::Map(
        entries
            .iter()
            .map(|(k, v)| (Content::Str(k.to_string()), v.clone()))
            .collect(),
    )
}

fn err<T: serde::Deserialize + std::fmt::Debug>(c: &Content) -> String {
    T::from_content(c).unwrap_err().to_string()
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Lenient {
    a: u32,
    b: Option<u32>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct Strict {
    a: u32,
}

#[test]
fn without_deny_unknown_fields_unknown_keys_are_ignored() {
    let c = map(&[("a", Content::U64(1)), ("zz", Content::Bool(true))]);
    assert_eq!(
        Lenient::from_content(&c).unwrap(),
        Lenient { a: 1, b: None }
    );
}

#[test]
fn deny_unknown_fields_names_the_key_and_type() {
    let ok = map(&[("a", Content::U64(1))]);
    assert_eq!(Strict::from_content(&ok).unwrap(), Strict { a: 1 });
    let c = map(&[("a", Content::U64(1)), ("zz", Content::Bool(true))]);
    assert_eq!(err::<Strict>(&c), "unknown field `zz` in `Strict`");
    let c = Content::Map(vec![(Content::U64(0), Content::U64(1))]);
    assert_eq!(err::<Strict>(&c), "non-string key in `Strict`");
}

#[test]
fn required_fields_and_shapes_keep_their_errors() {
    assert_eq!(err::<Strict>(&map(&[])), "missing field `a` in `Strict`");
    assert_eq!(
        err::<Strict>(&Content::U64(3)),
        "expected map for `Strict`, got integer"
    );
    // An `Option` field without `default` still tolerates omission.
    let c = map(&[("a", Content::U64(1)), ("b", Content::Null)]);
    assert_eq!(Lenient::from_content(&c).unwrap().b, None);
}

fn seven() -> u64 {
    7
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FieldDefaults {
    #[serde(default)]
    plain: u32,
    /// Doc comments and other attributes sit beside `serde` ones.
    #[serde(default = "seven")]
    path: u64,
}

#[test]
fn field_default_covers_absent_and_null() {
    let absent = FieldDefaults::from_content(&map(&[])).unwrap();
    assert_eq!(absent, FieldDefaults { plain: 0, path: 7 });
    let null = map(&[("plain", Content::Null), ("path", Content::Null)]);
    assert_eq!(FieldDefaults::from_content(&null).unwrap(), absent);
    let set = map(&[("plain", Content::U64(2)), ("path", Content::U64(3))]);
    assert_eq!(
        FieldDefaults::from_content(&set).unwrap(),
        FieldDefaults { plain: 2, path: 3 }
    );
    // A present value of the wrong type is an error, not the default.
    let bad = map(&[("path", Content::Str("x".into()))]);
    assert!(FieldDefaults::from_content(&bad).is_err());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
struct ContainerDefault {
    list: Vec<u32>,
    level: u32,
}

impl Default for ContainerDefault {
    fn default() -> Self {
        ContainerDefault {
            list: vec![9],
            level: 5,
        }
    }
}

#[test]
fn container_default_takes_omitted_fields_from_default_impl() {
    assert_eq!(
        ContainerDefault::from_content(&map(&[])).unwrap(),
        ContainerDefault::default()
    );
    let c = map(&[("list", Content::Null), ("level", Content::U64(1))]);
    assert_eq!(
        ContainerDefault::from_content(&c).unwrap(),
        ContainerDefault {
            list: vec![9],
            level: 1
        }
    );
    let c = map(&[("levle", Content::U64(1))]);
    assert_eq!(
        err::<ContainerDefault>(&c),
        "unknown field `levle` in `ContainerDefault`"
    );
    // Serialization is unaffected: every field, declaration order.
    assert_eq!(
        ContainerDefault::default().to_content(),
        map(&[
            ("list", Content::Seq(vec![Content::U64(9)])),
            ("level", Content::U64(5)),
        ])
    );
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase", deny_unknown_fields)]
enum Shape {
    Point,
    Circle { radius: u32 },
    RoundedBox { w: u32, h: u32 },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
enum LenientTagged {
    Unit,
    Pair { a: u32, b: u32 },
}

#[test]
fn internal_tag_round_trips_every_variant() {
    let cases = [
        (Shape::Point, map(&[("kind", Content::Str("point".into()))])),
        (
            Shape::Circle { radius: 3 },
            map(&[
                ("kind", Content::Str("circle".into())),
                ("radius", Content::U64(3)),
            ]),
        ),
        (
            Shape::RoundedBox { w: 1, h: 2 },
            map(&[
                ("kind", Content::Str("roundedbox".into())),
                ("w", Content::U64(1)),
                ("h", Content::U64(2)),
            ]),
        ),
    ];
    for (shape, content) in cases {
        assert_eq!(shape.to_content(), content);
        assert_eq!(Shape::from_content(&content).unwrap(), shape);
    }
}

#[test]
fn internal_tag_errors() {
    let no_kind = map(&[("radius", Content::U64(3))]);
    assert_eq!(err::<Shape>(&no_kind), "missing field `kind` in `Shape`");
    let unknown = map(&[("kind", Content::Str("hexagon".into()))]);
    assert_eq!(
        err::<Shape>(&unknown),
        "unknown variant `hexagon` of `Shape`"
    );
    // Variant names match exactly: the lower-case spelling only.
    let cased = map(&[("kind", Content::Str("Point".into()))]);
    assert_eq!(err::<Shape>(&cased), "unknown variant `Point` of `Shape`");
    let missing = map(&[("kind", Content::Str("circle".into()))]);
    assert_eq!(err::<Shape>(&missing), "missing field `radius` in `Shape`");
    let extra = map(&[
        ("kind", Content::Str("point".into())),
        ("radius", Content::U64(3)),
    ]);
    assert_eq!(err::<Shape>(&extra), "unknown field `radius` in `Shape`");
    assert_eq!(
        err::<Shape>(&Content::Str("point".into())),
        "expected map for `Shape`, got string"
    );
    // Without `deny_unknown_fields` the tagged form ignores extra keys and
    // keeps the variant names as declared.
    let c = map(&[
        ("type", Content::Str("Pair".into())),
        ("a", Content::U64(1)),
        ("b", Content::U64(2)),
        ("c", Content::U64(3)),
    ]);
    assert_eq!(
        LenientTagged::from_content(&c).unwrap(),
        LenientTagged::Pair { a: 1, b: 2 }
    );
    assert_eq!(
        LenientTagged::Unit.to_content(),
        map(&[("type", Content::Str("Unit".into()))])
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
enum External {
    Alpha,
    Beta(u32),
}

#[test]
fn rename_all_applies_to_externally_tagged_enums() {
    assert_eq!(External::Alpha.to_content(), Content::Str("alpha".into()));
    let beta = map(&[("beta", Content::U64(4))]);
    assert_eq!(External::Beta(4).to_content(), beta);
    assert_eq!(External::from_content(&beta).unwrap(), External::Beta(4));
    let e: DeError = External::from_content(&Content::Str("Alpha".into())).unwrap_err();
    assert_eq!(e.to_string(), "unknown variant `Alpha` of `External`");
}
