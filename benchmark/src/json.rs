//! JSON through `coconet_bench::json` (the repo's dependency-free value,
//! pretty renderer and parser), plus the three things the benchmark
//! needs that it lacks: a one-line render for the result line the
//! driver reads, and the `bool` and array accessors.

pub use coconet_bench::Json;

/// Deepest nesting [`parse`] accepts. The shared parser recurses per
/// level and result files are input from outside the program.
const MAX_DEPTH: usize = 64;

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Parses one JSON document, refusing input nested deeper than
/// [`MAX_DEPTH`] (brackets inside strings count too, which only makes
/// the check stricter).
pub fn parse(input: &str) -> Result<Json, String> {
    let (mut depth, mut deepest) = (0usize, 0usize);
    for b in input.bytes() {
        match b {
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
        deepest = deepest.max(depth);
    }
    if deepest > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} levels"));
    }
    Json::parse(input).map_err(|e| e.to_string())
}

pub trait JsonExt {
    fn as_bool(&self) -> Option<bool>;
    fn as_arr(&self) -> Option<&[Json]>;
    /// One line, no spaces after separators.
    fn render(&self) -> String;
}

impl JsonExt for Json {
    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    fn render(&self) -> String {
        let list = |open: char, items: Vec<String>, close: char| {
            format!("{open}{}{close}", items.join(","))
        };
        match self {
            Json::Arr(items) => list('[', items.iter().map(Json::render).collect(), ']'),
            Json::Obj(pairs) => {
                let pair = |(k, v): &(String, Json)| {
                    format!("{}:{}", text(k.as_str()).render(), v.render())
                };
                list('{', pairs.iter().map(pair).collect(), '}')
            }
            // A scalar's pretty form is already one line; the shared
            // renderer owns number formatting and string escaping.
            scalar => scalar.render_pretty().trim_end().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(125.0)),
            (
                "metrics",
                Json::obj([(
                    "iter_ms_p50",
                    Json::obj([("value", Json::Num(80.25)), ("unit", text("ms"))]),
                )]),
            ),
            ("note", text("a \"quoted\"\nline\\ ")),
            ("list", Json::Arr(vec![Json::Null, Json::Num(-1.5e-7)])),
            ("empty", Json::Arr(vec![])),
        ])
    }

    #[test]
    fn compact_render_is_one_line_and_round_trips() {
        let line = sample().render();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":125,\"metrics\":{"));
        assert!(line.ends_with("\"empty\":[]}"));
        assert_eq!(parse(&line).unwrap(), sample());
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let v = 1.2034567890123457_f64;
        assert_eq!(Json::Num(v).render().parse::<f64>().unwrap(), v);
        assert_eq!(Json::Num(3.0).render(), "3");
    }

    #[test]
    fn malformed_or_too_deep_input_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&format!("{}1{}", "[".repeat(60), "]".repeat(60))).is_ok());
    }

    #[test]
    fn accessors() {
        let j = sample();
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(Json::as_bool), None);
        assert_eq!(
            j.get("list").and_then(Json::as_arr).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(j.get("note").and_then(Json::as_arr), None);
    }
}
