//! Offline stand-in for `serde_derive`: generates `Serialize`/`Deserialize`
//! impls against the in-tree `serde` shim's `Content` model.
//!
//! No `syn`/`quote` — the type definition is parsed directly from the
//! `proc_macro::TokenStream`. Supported shapes are exactly the ones used in
//! this workspace: non-generic structs (named, tuple, unit) and enums with
//! unit / tuple / struct variants, externally tagged unless `tag` is set.
//! Generics are rejected with a clear panic at expansion time.
//!
//! Supported `#[serde(...)]` attributes, spelled as in upstream serde:
//!
//! - container `deny_unknown_fields`: a map key that names no field is an
//!   error (``unknown field `k` in `Ty` ``). Without it unknown keys are
//!   ignored.
//! - container `default` (named structs): an omitted field takes its value
//!   from the type's `Default` impl.
//! - field `default` and `default = "path"`: an omitted field takes
//!   `Default::default()` or `path()`.
//! - enum `tag = "…"`: internally tagged, `{"<tag>": "<variant>", fields…}`
//!   (unit and struct variants only).
//! - enum `rename_all = "lowercase"`: variant names in lower case.
//!
//! One deviation from upstream: a defaulted field present as `null` takes
//! the default too, exactly like an absent one. Any other `serde` attribute
//! panics at expansion time instead of being silently ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct TypeDef {
    name: String,
    attrs: ContainerAttrs,
    kind: Kind,
}

#[derive(Debug, Default)]
struct ContainerAttrs {
    deny_unknown_fields: bool,
    default: bool,
    tag: Option<String>,
    lowercase: bool,
}

#[derive(Debug)]
enum Kind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug)]
struct Field {
    name: String,
    /// Expression for an absent or `null` field; `None` means required.
    default: Option<String>,
}

#[derive(Debug)]
struct Variant {
    name: String,
    /// The name as it appears in JSON.
    wire: String,
    shape: Shape,
}

impl Variant {
    fn fields(&self) -> &[Field] {
        match &self.shape {
            Shape::Named(fields) => fields,
            _ => &[],
        }
    }
}

#[derive(Debug)]
enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// One `key` or `key = "value"` item of a `#[serde(...)]` attribute.
type Meta = (String, Option<String>);

/// Split a token list on commas at angle-bracket depth zero. (Commas inside
/// `(..)`/`[..]`/`{..}` are already hidden inside `Group` tokens; only
/// generic argument lists like `HashMap<K, V>` need the depth counter.)
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle: i32 = 0;
    for t in tokens {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(t);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The items of one attribute's bracket group if it is `serde(...)`;
/// other attributes (`doc`, `default`, …) yield nothing.
fn serde_metas(attr: &TokenTree) -> Vec<Meta> {
    let TokenTree::Group(g) = attr else {
        return Vec::new();
    };
    let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
    let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) =
        (tokens.first(), tokens.get(1))
    else {
        return Vec::new();
    };
    if id.to_string() != "serde" {
        return Vec::new();
    }
    split_commas(args.stream().into_iter().collect())
        .into_iter()
        .map(|item| match item.as_slice() {
            [TokenTree::Ident(key)] => (key.to_string(), None),
            [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                if eq.as_char() == '=' && lit.to_string().starts_with('"') =>
            {
                let value = lit.to_string().trim_matches('"').to_string();
                (key.to_string(), Some(value))
            }
            other => {
                let text: Vec<String> = other.iter().map(ToString::to_string).collect();
                panic!(
                    "serde_derive shim: cannot parse `#[serde({})]`",
                    text.join(" ")
                )
            }
        })
        .collect()
}

fn unsupported((key, value): &Meta, place: &str) -> ! {
    let value = value
        .as_ref()
        .map_or(String::new(), |v| format!(" = \"{v}\""));
    panic!("serde_derive shim: unsupported attribute `#[serde({key}{value})]` on {place}")
}

/// Collect the `serde` items of leading `#[...]` attributes, then drop those
/// attributes and any `pub` / `pub(...)` visibility.
fn split_attrs(tokens: &[TokenTree]) -> (Vec<Meta>, &[TokenTree]) {
    let mut metas = Vec::new();
    let mut i = 0;
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // `#` then the bracketed attribute group.
                if let Some(attr) = tokens.get(i + 1) {
                    metas.extend(serde_metas(attr));
                }
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return (metas, &tokens[i..]),
        }
    }
}

fn named_fields(group_tokens: Vec<TokenTree>) -> Vec<Field> {
    split_commas(group_tokens)
        .into_iter()
        .filter_map(|chunk| {
            let (metas, chunk) = split_attrs(&chunk);
            let name = match chunk.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                _ => return None,
            };
            let mut default = None;
            for meta in &metas {
                default = Some(match meta {
                    (key, None) if key == "default" => {
                        "::std::default::Default::default()".to_string()
                    }
                    (key, Some(path)) if key == "default" => format!("{path}()"),
                    _ => unsupported(meta, &format!("field `{name}`")),
                });
            }
            Some(Field { name, default })
        })
        .collect()
}

fn tuple_arity(group_tokens: Vec<TokenTree>) -> usize {
    split_commas(group_tokens)
        .into_iter()
        .filter(|c| {
            let (metas, rest) = split_attrs(c);
            if let Some(meta) = metas.first() {
                unsupported(meta, "a tuple field");
            }
            !rest.is_empty()
        })
        .count()
}

fn container_attrs(metas: &[Meta], name: &str, kind: &Kind) -> ContainerAttrs {
    let mut attrs = ContainerAttrs::default();
    let is_enum = matches!(kind, Kind::Enum(_));
    for meta in metas {
        match (meta.0.as_str(), meta.1.as_deref()) {
            ("deny_unknown_fields", None) => attrs.deny_unknown_fields = true,
            ("default", None) if matches!(kind, Kind::NamedStruct(_)) => attrs.default = true,
            ("tag", Some(tag)) if is_enum => attrs.tag = Some(tag.to_string()),
            ("rename_all", Some("lowercase")) if is_enum => attrs.lowercase = true,
            _ => unsupported(meta, &format!("`{name}`")),
        }
    }
    attrs
}

fn parse_def(input: TokenStream) -> TypeDef {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (metas, tokens) = split_attrs(&tokens);
    let mut it = tokens.iter();
    let keyword = loop {
        match it.next() {
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
            }
            Some(_) => {}
            None => panic!("serde_derive shim: no struct/enum keyword found"),
        }
    };
    let name = match it.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected type name, got {other:?}"),
    };
    let next = it.next();
    if let Some(TokenTree::Punct(p)) = next {
        if p.as_char() == '<' {
            panic!("serde_derive shim: generic type `{name}` is not supported");
        }
    }
    let mut kind = if keyword == "enum" {
        let body = match next {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            other => panic!("serde_derive shim: expected enum body, got {other:?}"),
        };
        let variants = split_commas(body.into_iter().collect())
            .into_iter()
            .filter_map(|chunk| {
                let (metas, chunk) = split_attrs(&chunk);
                let vname = match chunk.first() {
                    Some(TokenTree::Ident(id)) => id.to_string(),
                    _ => return None,
                };
                if let Some(meta) = metas.first() {
                    unsupported(meta, &format!("variant `{name}::{vname}`"));
                }
                let shape = match chunk.get(1) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        Shape::Tuple(tuple_arity(g.stream().into_iter().collect()))
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        Shape::Named(named_fields(g.stream().into_iter().collect()))
                    }
                    _ => Shape::Unit,
                };
                Some(Variant {
                    wire: vname.clone(),
                    name: vname,
                    shape,
                })
            })
            .collect();
        Kind::Enum(variants)
    } else {
        match next {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::NamedStruct(named_fields(g.stream().into_iter().collect()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::TupleStruct(tuple_arity(g.stream().into_iter().collect()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::UnitStruct,
            other => panic!("serde_derive shim: unsupported struct body {other:?}"),
        }
    };
    let attrs = container_attrs(&metas, &name, &kind);
    if let Kind::Enum(variants) = &mut kind {
        for v in variants {
            if attrs.tag.is_some() && matches!(v.shape, Shape::Tuple(_)) {
                panic!(
                    "serde_derive shim: internally tagged enum `{name}` cannot have \
                     tuple variant `{}`",
                    v.name
                );
            }
            if attrs.lowercase {
                v.wire = v.wire.to_lowercase();
            }
        }
    }
    TypeDef { name, attrs, kind }
}

/// `(key, value)` map entries serializing the named `fields`, each bound to
/// a local of the same name (`self.` prefix via `access`).
fn field_entries(fields: &[Field], access: &str) -> Vec<String> {
    fields
        .iter()
        .map(|f| {
            format!(
                "(::serde::Content::Str(String::from(\"{0}\")), \
                 ::serde::Serialize::to_content({access}{0}))",
                f.name
            )
        })
        .collect()
}

/// `Path { field: <decoded from __m>, … }` for a named struct or variant.
/// `container_default` takes omitted fields from a local `__default`.
fn construct(path: &str, fields: &[Field], ty: &str, container_default: bool) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            let default = match &f.default {
                Some(expr) => Some(expr.clone()),
                None if container_default => Some(format!("__default.{n}")),
                None => None,
            };
            match default {
                Some(expr) => format!(
                    "{n}: match ::serde::__default_field(__m, \"{n}\")? \
                     {{ Some(__v) => __v, None => {expr} }},"
                ),
                None => format!("{n}: ::serde::__field(__m, \"{n}\", \"{ty}\")?,"),
            }
        })
        .collect();
    format!("{path} {{ {} }}", items.join("\n"))
}

/// Under `deny_unknown_fields`, a statement rejecting keys of `__m`
/// outside `fields` (plus `extra`); otherwise nothing.
fn deny_unknown(def: &TypeDef, fields: &[Field], extra: Option<&str>, ty: &str) -> String {
    if !def.attrs.deny_unknown_fields {
        return String::new();
    }
    let known: Vec<String> = extra
        .into_iter()
        .chain(fields.iter().map(|f| f.name.as_str()))
        .map(|n| format!("\"{n}\""))
        .collect();
    format!(
        "::serde::__deny_unknown_fields(__m, &[{}], \"{ty}\")?;",
        known.join(", ")
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let def = parse_def(input);
    let name = &def.name;
    let body = match &def.kind {
        Kind::UnitStruct => "::serde::Content::Null".to_string(),
        Kind::TupleStruct(1) => "::serde::Serialize::to_content(&self.0)".to_string(),
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_content(&self.{i})"))
                .collect();
            format!("::serde::Content::Seq(vec![{}])", items.join(", "))
        }
        Kind::NamedStruct(fields) => format!(
            "::serde::Content::Map(vec![{}])",
            field_entries(fields, "&self.").join(", ")
        ),
        Kind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let (vn, wire) = (&v.name, &v.wire);
                    let tag = format!("::serde::Content::Str(String::from(\"{wire}\"))");
                    let fields = v.fields();
                    let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                    let binds = binds.join(", ");
                    if let Some(key) = &def.attrs.tag {
                        // `E::V {}` also matches a unit variant.
                        let mut entries = vec![format!(
                            "(::serde::Content::Str(String::from(\"{key}\")), {tag})"
                        )];
                        entries.extend(field_entries(fields, ""));
                        return format!(
                            "{name}::{vn} {{ {binds} }} => ::serde::Content::Map(vec![{}]),",
                            entries.join(", ")
                        );
                    }
                    match &v.shape {
                        Shape::Unit => format!("{name}::{vn} => {tag},"),
                        Shape::Tuple(1) => format!(
                            "{name}::{vn}(__f0) => ::serde::Content::Map(vec![({tag}, \
                             ::serde::Serialize::to_content(__f0))]),"
                        ),
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let items: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_content(__f{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::Content::Map(vec![({tag}, \
                                 ::serde::Content::Seq(vec![{}]))]),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        Shape::Named(fields) => format!(
                            "{name}::{vn} {{ {binds} }} => ::serde::Content::Map(vec![({tag}, \
                             ::serde::Content::Map(vec![{}]))]),",
                            field_entries(fields, "").join(", ")
                        ),
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join("\n"))
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_content(&self) -> ::serde::Content {{ {body} }}\n\
         }}"
    );
    out.parse()
        .expect("serde_derive shim: generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let def = parse_def(input);
    let name = &def.name;
    let body = match &def.kind {
        Kind::UnitStruct => format!("{{ let _ = __c; Ok({name}) }}"),
        Kind::TupleStruct(1) => {
            format!("Ok({name}(::serde::Deserialize::from_content(__c)?))")
        }
        Kind::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_content(&__seq[{i}])?"))
                .collect();
            format!(
                "{{ let __seq = __c.as_seq().ok_or_else(|| \
                 ::serde::DeError::expected(\"sequence\", \"{name}\", __c))?;\n\
                 if __seq.len() != {n} {{ return Err(::serde::DeError::custom(\
                 format!(\"expected {n} elements for {name}, got {{}}\", __seq.len()))); }}\n\
                 Ok({name}({})) }}",
                items.join(", ")
            )
        }
        Kind::NamedStruct(fields) => {
            let check = deny_unknown(&def, fields, None, name);
            let defaults = if def.attrs.default {
                "let __default: Self = ::std::default::Default::default();"
            } else {
                ""
            };
            format!(
                "{{ let __m = ::serde::__map(__c, \"{name}\")?;\n{check}\n{defaults}\n\
                 Ok({}) }}",
                construct(name, fields, name, def.attrs.default)
            )
        }
        Kind::Enum(variants) if def.attrs.tag.is_some() => {
            let key = def.attrs.tag.as_deref().unwrap_or_default();
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let check = deny_unknown(&def, v.fields(), Some(key), name);
                    // `E::V {}` also builds a unit variant.
                    let value = construct(&format!("{name}::{}", v.name), v.fields(), name, false);
                    format!("\"{}\" => {{ {check} Ok({value}) }}", v.wire)
                })
                .collect();
            format!(
                "{{ let __m = ::serde::__map(__c, \"{name}\")?;\n\
                 let __tag: String = ::serde::__field(__m, \"{key}\", \"{name}\")?;\n\
                 match __tag.as_str() {{\n\
                 {}\n\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
                 }} }}",
                arms.join("\n")
            )
        }
        Kind::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, Shape::Unit))
                .map(|v| format!("\"{}\" => Ok({name}::{}),", v.wire, v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let (vn, wire) = (&v.name, &v.wire);
                    match &v.shape {
                        Shape::Unit => None,
                        Shape::Tuple(1) => Some(format!(
                            "\"{wire}\" => Ok({name}::{vn}(\
                             ::serde::Deserialize::from_content(__payload)?)),"
                        )),
                        Shape::Tuple(n) => {
                            let items: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!("::serde::Deserialize::from_content(&__seq[{i}])?")
                                })
                                .collect();
                            Some(format!(
                                "\"{wire}\" => {{ let __seq = __payload.as_seq().ok_or_else(|| \
                                 ::serde::DeError::expected(\"sequence\", \"{name}::{vn}\", __payload))?;\n\
                                 if __seq.len() != {n} {{ return Err(::serde::DeError::custom(\
                                 format!(\"expected {n} elements for {name}::{vn}, got {{}}\", __seq.len()))); }}\n\
                                 Ok({name}::{vn}({})) }}",
                                items.join(", ")
                            ))
                        }
                        Shape::Named(fields) => {
                            let ty = format!("{name}::{vn}");
                            let check = deny_unknown(&def, fields, None, &ty);
                            Some(format!(
                                "\"{wire}\" => {{ let __m = ::serde::__map(__payload, \"{ty}\")?;\n\
                                 {check}\nOk({}) }}",
                                construct(&ty, fields, &ty, false)
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match __c {{\n\
                 ::serde::Content::Str(__s) => match __s.as_str() {{\n\
                 {}\n\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
                 }},\n\
                 ::serde::Content::Map(__entries) if __entries.len() == 1 => {{\n\
                 let (__tag, __payload) = &__entries[0];\n\
                 let __tag = __tag.as_str().ok_or_else(|| \
                 ::serde::DeError::expected(\"string tag\", \"{name}\", __tag))?;\n\
                 match __tag {{\n\
                 {}\n\
                 __other => Err(::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
                 }}\n\
                 }},\n\
                 __other => Err(::serde::DeError::expected(\"enum\", \"{name}\", __other)),\n\
                 }}",
                unit_arms.join("\n"),
                data_arms.join("\n")
            )
        }
    };
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_content(__c: &::serde::Content) -> \
         ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    );
    out.parse()
        .expect("serde_derive shim: generated Deserialize impl must parse")
}
