//! `#[derive(Serialize, Deserialize)]` for the in-repo serde shim.
//! `Serialize` writes JSON text field by field (`write_json`);
//! `Deserialize` reads the shim's `Value` tree (`from_value`).
//!
//! Written against `proc_macro` directly (no `syn`/`quote` — the build is
//! offline). Supports exactly the shapes this workspace derives on:
//!
//! * structs with named fields, optionally generic over type parameters
//!   (bounds on the params themselves are ignored; the generated impl
//!   re-bounds every parameter with `Serialize`/`Deserialize`);
//! * enums whose variants are all unit variants;
//! * the `#[serde(skip)]` field attribute (field omitted on serialize,
//!   filled from `Default::default()` on deserialize).
//!
//! Anything else — tuple structs, variant payloads, other `#[serde(...)]`
//! options — panics at derive time with a clear message rather than
//! generating wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    skip: bool,
}

enum Kind {
    Struct(Vec<Field>),
    Enum(Vec<String>),
}

struct Input {
    name: String,
    type_params: Vec<String>,
    kind: Kind,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim derive generated invalid Rust")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim derive generated invalid Rust")
}

// ---- parsing ------------------------------------------------------------

/// Consume one `#[...]` attribute (the `#` was already consumed); return
/// whether it is `#[serde(skip)]`.
fn attr_is_skip(iter: &mut impl Iterator<Item = TokenTree>) -> bool {
    match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
            let mut inner = g.stream().into_iter();
            match inner.next() {
                Some(TokenTree::Ident(id)) if id.to_string() == "serde" => match inner.next() {
                    Some(TokenTree::Group(args)) => {
                        let body = args.stream().to_string();
                        if body.trim() == "skip" {
                            true
                        } else {
                            panic!("serde shim derive: unsupported attribute #[serde({body})]");
                        }
                    }
                    _ => panic!("serde shim derive: malformed #[serde] attribute"),
                },
                _ => false, // #[doc], #[derive], #[cfg], ... — ignore
            }
        }
        other => panic!("serde shim derive: expected attribute body, got {other:?}"),
    }
}

fn parse(input: TokenStream) -> Input {
    let mut iter = input.into_iter().peekable();

    // Preamble: attributes and visibility up to `struct` / `enum`.
    let keyword = loop {
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                attr_is_skip(&mut iter);
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                // `pub`, `pub(crate)` etc. — the paren group after `pub`
                // is consumed by the generic match arms below.
            }
            Some(_) => {}
            None => panic!("serde shim derive: no struct/enum keyword found"),
        }
    };

    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };

    // Generic parameter list, if present.
    let mut type_params = Vec::new();
    if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        iter.next();
        let mut depth = 1usize;
        let mut at_param_start = true;
        let mut in_lifetime = false;
        while depth > 0 {
            match iter.next() {
                Some(TokenTree::Punct(p)) => match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ',' if depth == 1 => {
                        at_param_start = true;
                        in_lifetime = false;
                    }
                    '\'' if depth == 1 && at_param_start => in_lifetime = true,
                    ':' if depth == 1 => at_param_start = false,
                    _ => {}
                },
                Some(TokenTree::Ident(id)) if depth == 1 && at_param_start => {
                    if in_lifetime {
                        in_lifetime = false;
                    } else if id.to_string() == "const" {
                        panic!("serde shim derive: const generics unsupported");
                    } else {
                        type_params.push(id.to_string());
                    }
                    at_param_start = false;
                }
                Some(_) => {}
                None => panic!("serde shim derive: unterminated generic parameter list"),
            }
        }
    }

    // Body: the brace group (no `where` clauses exist in this workspace's
    // derived types, but skip any stray tokens defensively).
    let body = loop {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                panic!("serde shim derive: tuple/unit structs unsupported")
            }
            Some(_) => {}
            None => panic!("serde shim derive: missing {{...}} body"),
        }
    };

    let kind = if keyword == "struct" {
        Kind::Struct(parse_fields(body.stream()))
    } else {
        Kind::Enum(parse_variants(body.stream()))
    };
    Input {
        name,
        type_params,
        kind,
    }
}

fn parse_fields(stream: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        // Attributes.
        let mut skip = false;
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    iter.next();
                    skip |= attr_is_skip(&mut iter);
                }
                _ => break,
            }
        }
        // Visibility.
        if matches!(iter.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            iter.next();
            if matches!(iter.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                iter.next();
            }
        }
        // Field name.
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after field `{name}`, got {other:?}"),
        }
        // Type: consume until a comma at angle-bracket depth 0.
        let mut angle = 0usize;
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == '<' {
                        angle += 1;
                    } else if c == '>' {
                        angle = angle.saturating_sub(1);
                    } else if c == ',' && angle == 0 {
                        iter.next();
                        break;
                    }
                    iter.next();
                }
                Some(_) => {
                    iter.next();
                }
                None => break,
            }
        }
        fields.push(Field { name, skip });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<String> {
    let mut variants = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        // Attributes.
        loop {
            match iter.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    iter.next();
                    attr_is_skip(&mut iter);
                }
                _ => break,
            }
        }
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        match iter.next() {
            None => {
                variants.push(name);
                break;
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => variants.push(name),
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // Explicit discriminant: consume the expression.
                loop {
                    match iter.next() {
                        None => break,
                        Some(TokenTree::Punct(q)) if q.as_char() == ',' => break,
                        Some(_) => {}
                    }
                }
                variants.push(name);
            }
            Some(TokenTree::Group(_)) => {
                panic!("serde shim derive: enum variant `{name}` has a payload (unsupported)")
            }
            other => {
                panic!("serde shim derive: unexpected token after variant `{name}`: {other:?}")
            }
        }
    }
    variants
}

// ---- code generation ----------------------------------------------------

/// `impl<T: ::serde::Serialize> ::serde::Serialize for Name<T>` header parts.
fn impl_header(item: &Input, bound: &str) -> (String, String) {
    if item.type_params.is_empty() {
        (String::new(), item.name.clone())
    } else {
        let params = item
            .type_params
            .iter()
            .map(|p| format!("{p}: {bound}"))
            .collect::<Vec<_>>()
            .join(", ");
        let args = item.type_params.join(", ");
        (format!("<{params}>"), format!("{}<{args}>", item.name))
    }
}

fn gen_serialize(item: &Input) -> String {
    let (generics, ty) = impl_header(item, "::serde::Serialize");
    let body = match &item.kind {
        Kind::Struct(fields) => {
            // `{"a":<a>,"b":<b>}` with the keys and punctuation folded
            // into one literal per field (Rust identifiers need no JSON
            // escaping).
            let mut body = String::new();
            let mut sep = '{';
            for f in fields.iter().filter(|f| !f.skip) {
                body.push_str(&format!(
                    "out.push_str(\"{sep}\\\"{n}\\\":\");\n\
                     ::serde::Serialize::write_json(&self.{n}, out);\n",
                    n = f.name
                ));
                sep = ',';
            }
            if sep == '{' {
                body.push_str("out.push_str(\"{}\");");
            } else {
                body.push_str("out.push('}');");
            }
            body
        }
        Kind::Enum(variants) => {
            let arms = variants
                .iter()
                .map(|v| format!("{}::{v} => \"\\\"{v}\\\"\",", item.name))
                .collect::<String>();
            format!("out.push_str(match self {{ {arms} }});")
        }
    };
    format!(
        "impl{generics} ::serde::Serialize for {ty} {{\n\
         fn write_json(&self, out: &mut ::serde::ser::Out<'_>) {{\n{body}\n}}\n}}"
    )
}

fn gen_deserialize(item: &Input) -> String {
    let (generics, ty) = impl_header(item, "::serde::Deserialize");
    let body = match &item.kind {
        Kind::Struct(fields) => {
            let mut inits = String::new();
            for f in fields {
                if f.skip {
                    inits.push_str(&format!(
                        "{n}: ::core::default::Default::default(),\n",
                        n = f.name
                    ));
                } else {
                    inits.push_str(&format!(
                        "{n}: match ::serde::value::Value::get_field(v, \"{n}\") {{\n\
                         Some(fv) => ::serde::Deserialize::from_value(fv)?,\n\
                         None => return Err(::serde::DeError::msg(\
                         \"missing field `{n}` in `{name}`\")),\n}},\n",
                        n = f.name,
                        name = item.name
                    ));
                }
            }
            format!(
                "if v.as_obj().is_none() {{\n\
                 return Err(::serde::DeError::msg(\
                 \"expected object for `{name}`\"));\n}}\n\
                 Ok({name} {{\n{inits}}})",
                name = item.name
            )
        }
        Kind::Enum(variants) => {
            let arms = variants
                .iter()
                .map(|v| format!("Some(\"{v}\") => Ok({}::{v}),", item.name))
                .collect::<String>();
            format!(
                "match v.as_str() {{ {arms} _ => Err(::serde::DeError::msg(format!(\
                 \"unknown `{name}` variant: {{v:?}}\"))) }}",
                name = item.name
            )
        }
    };
    format!(
        "impl{generics} ::serde::Deserialize for {ty} {{\n\
         fn from_value(v: &::serde::value::Value) -> \
         ::core::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}"
    )
}
