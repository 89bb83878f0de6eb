//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! BLIF's `.names` construct *is* a technology-independent SOP node, so
//! the natural exchange type is [`SopNetwork`]. The supported subset is
//! the combinational core: `.model`, `.inputs`, `.outputs`, `.names`
//! (single-output cover rows), `.end`, comments and `\` line
//! continuations. Latches and subcircuits are out of scope — the paper's
//! flow operates on combinational blocks between registers.

use crate::sop_network::SopNetwork;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use tm_logic::tt::MAX_TT_VARS;
use tm_logic::{qm, Cube, Sop, TruthTable};

/// Widest `.names` block that may be given by off-set rows (output
/// `0`). The off-set is complemented into an on-set cover by exact
/// two-level minimization, whose prime generation walks up to `2^n`
/// free sets over `2^n`-bit tables: a single-row 10-fanin block parses
/// in about 0.3 ms (release build, one Xeon vCPU), and the cost grows
/// about fourfold per fanin.
const MAX_OFFSET_FANINS: usize = 10;

/// Cap on the off-set complementation work of one document, in table
/// bits: a block of `n` fanins costs `2^n · 2^n` for its prime generation
/// plus `2^n` per prime of the complement for its cover selection. About
/// 60 single-row 10-fanin blocks fit, so a document cannot multiply the
/// per-block bound by packing blocks into one frame. The cap holds
/// whatever the request budget says.
const MAX_OFFSET_WORK: u64 = 1 << 26;

/// Error produced while parsing BLIF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBlifError {
    line: usize,
    message: String,
}

impl ParseBlifError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseBlifError { line, message: message.into() }
    }

    /// 1-based line number of the offending input line.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blif parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseBlifError {}

/// Parses a BLIF document into a [`SopNetwork`].
///
/// Signals may be used before their defining `.names` block appears; a
/// two-pass scheme resolves forward references. Covers with output value
/// `0` (off-set rows) are complemented into on-set covers via exact
/// two-level minimization, so such blocks are limited to 10 fanins;
/// other node fanin counts must stay within
/// [`tm_logic::tt::MAX_TT_VARS`].
///
/// # Errors
///
/// Returns [`ParseBlifError`] on malformed syntax, undefined signals,
/// duplicate definitions, cyclic node dependencies, `.names` blocks
/// with more than [`MAX_TT_VARS`] fanins (the supported subset keeps
/// every node truth-table representable), off-set blocks with more
/// than 10 fanins, or off-set blocks whose complementation work adds up
/// past the document's cap. Arbitrary — including
/// adversarial — input never panics; every rejection carries the
/// 1-based line number of the offending construct.
///
/// # Examples
///
/// ```
/// use tm_netlist::blif::parse_blif;
///
/// let src = "\
/// .model tiny
/// .inputs a b
/// .outputs y
/// .names a b y
/// 11 1
/// .end
/// ";
/// let net = parse_blif(src)?;
/// assert_eq!(net.eval(&[true, true]), vec![true]);
/// assert_eq!(net.eval(&[true, false]), vec![false]);
/// # Ok::<(), tm_netlist::blif::ParseBlifError>(())
/// ```
pub fn parse_blif(text: &str) -> Result<SopNetwork, ParseBlifError> {
    struct RawNames {
        line: usize,
        signals: Vec<String>, // fanins... , output
        cover: Sop,
    }

    let mut model_name = String::from("unnamed");
    // Names paired with the line of the directive that declared them,
    // so late errors (duplicates, undefined outputs) can point at it.
    let mut input_names: Vec<(usize, String)> = Vec::new();
    let mut output_names: Vec<(usize, String)> = Vec::new();
    let mut names_blocks: Vec<RawNames> = Vec::new();
    let mut offset_work = 0u64;

    // Join continuation lines, tracking original line numbers.
    let mut logical_lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let without_comment = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let trimmed = without_comment.trim_end();
        let (content, continued) = match trimmed.strip_suffix('\\') {
            Some(stripped) => (stripped, true),
            None => (trimmed, false),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(content);
                if continued {
                    pending = Some((start, acc));
                } else {
                    logical_lines.push((start, acc));
                }
            }
            None => {
                if continued {
                    pending = Some((line_no, content.to_string()));
                } else if !content.trim().is_empty() {
                    logical_lines.push((line_no, content.to_string()));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        logical_lines.push((start, acc));
    }

    let mut idx = 0;
    while idx < logical_lines.len() {
        let (line_no, line) = &logical_lines[idx];
        let mut tokens = line.split_whitespace();
        let head = tokens.next().unwrap_or("");
        match head {
            ".model" => {
                model_name = tokens.next().unwrap_or("unnamed").to_string();
                idx += 1;
            }
            ".inputs" => {
                input_names.extend(tokens.map(|t| (*line_no, t.to_string())));
                idx += 1;
            }
            ".outputs" => {
                output_names.extend(tokens.map(|t| (*line_no, t.to_string())));
                idx += 1;
            }
            ".names" => {
                let signals: Vec<String> = tokens.map(str::to_string).collect();
                if signals.is_empty() {
                    return Err(ParseBlifError::new(*line_no, ".names needs at least an output"));
                }
                if signals.len() - 1 > MAX_TT_VARS {
                    return Err(ParseBlifError::new(
                        *line_no,
                        format!(
                            ".names with {} fanins exceeds the supported maximum of {MAX_TT_VARS}",
                            signals.len() - 1
                        ),
                    ));
                }
                let mut rows = Vec::new();
                idx += 1;
                while idx < logical_lines.len() {
                    let (row_line, row) = &logical_lines[idx];
                    if row.trim_start().starts_with('.') {
                        break;
                    }
                    let parts: Vec<&str> = row.split_whitespace().collect();
                    let (plane, out) = match (signals.len() - 1, parts.as_slice()) {
                        (0, [o]) => (String::new(), *o),
                        (_, [p, o]) => ((*p).to_string(), *o),
                        _ => {
                            return Err(ParseBlifError::new(
                                *row_line,
                                format!("malformed cover row {row:?}"),
                            ))
                        }
                    };
                    if plane.len() != signals.len() - 1 {
                        return Err(ParseBlifError::new(
                            *row_line,
                            format!(
                                "cover row width {} does not match {} fanins",
                                plane.len(),
                                signals.len() - 1
                            ),
                        ));
                    }
                    if let Some(bad) = plane.chars().find(|c| !matches!(c, '0' | '1' | '-')) {
                        return Err(ParseBlifError::new(
                            *row_line,
                            format!("invalid cover row character {bad:?} (expected 0, 1, or -)"),
                        ));
                    }
                    let out_char = out.chars().next().unwrap_or('?');
                    if out_char != '0' && out_char != '1' {
                        return Err(ParseBlifError::new(*row_line, "output value must be 0 or 1"));
                    }
                    rows.push((plane, out_char));
                    idx += 1;
                }
                let arity = signals.len() - 1;
                if arity > MAX_OFFSET_FANINS && rows.iter().any(|(_, out)| *out == '0') {
                    return Err(ParseBlifError::new(
                        *line_no,
                        format!(
                            ".names with {arity} fanins has off-set rows, which are limited \
                             to {MAX_OFFSET_FANINS} fanins"
                        ),
                    ));
                }
                let cover = rows_to_cover(arity, &rows, &mut offset_work).ok_or_else(|| {
                    ParseBlifError::new(
                        *line_no,
                        "off-set rows of this document exceed the complementation work limit",
                    )
                })?;
                names_blocks.push(RawNames { line: *line_no, signals, cover });
            }
            ".end" => {
                idx += 1;
            }
            ".latch" | ".subckt" | ".gate" => {
                return Err(ParseBlifError::new(
                    *line_no,
                    format!("unsupported construct {head} (combinational subset only)"),
                ));
            }
            _ => {
                return Err(ParseBlifError::new(*line_no, format!("unknown directive {head:?}")));
            }
        }
    }

    // Resolve definition order (forward references allowed): repeatedly
    // emit blocks whose fanins are all defined.
    let mut net = SopNetwork::new(model_name);
    let mut defined: HashMap<String, crate::sop_network::SigId> = HashMap::new();
    for (line, name) in &input_names {
        if defined.contains_key(name) {
            return Err(ParseBlifError::new(*line, format!("duplicate input {name}")));
        }
        defined.insert(name.clone(), net.add_input(name.clone()));
    }

    let mut remaining: Vec<&RawNames> = names_blocks.iter().collect();
    // Duplicate output definitions check.
    {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for b in &names_blocks {
            let out = b.signals.last().expect("nonempty").as_str();
            if seen.insert(out, b.line).is_some() {
                return Err(ParseBlifError::new(b.line, format!("signal {out} defined twice")));
            }
            if input_names.iter().any(|(_, i)| i == out) {
                return Err(ParseBlifError::new(b.line, format!("signal {out} shadows an input")));
            }
        }
    }

    while !remaining.is_empty() {
        let mut progressed = false;
        remaining.retain(|block| {
            let fanins = &block.signals[..block.signals.len() - 1];
            if !fanins.iter().all(|f| defined.contains_key(f)) {
                return true; // keep for a later pass
            }
            let out_name = block.signals.last().expect("nonempty").clone();
            let fanin_ids = fanins.iter().map(|f| defined[f]).collect::<Vec<_>>();
            let sig = net.add_node(out_name.clone(), fanin_ids, block.cover.clone());
            defined.insert(out_name, sig);
            progressed = true;
            false
        });
        if !remaining.is_empty() && !progressed {
            let b = remaining[0];
            return Err(ParseBlifError::new(
                b.line,
                "cyclic or undefined signal dependency in .names blocks",
            ));
        }
    }

    let mut marked: HashMap<&str, usize> = HashMap::new();
    for (line, name) in &output_names {
        if marked.insert(name.as_str(), *line).is_some() {
            return Err(ParseBlifError::new(*line, format!("output {name} listed twice")));
        }
        match defined.get(name) {
            Some(&sig) => net.mark_output(sig),
            None => {
                return Err(ParseBlifError::new(*line, format!("output {name} never defined")));
            }
        }
    }
    Ok(net)
}

/// The on-set cover of a block's rows. Off-set rows are complemented
/// by exact minimization, whose work is charged to `offset_work`;
/// `None` once the document's total passes [`MAX_OFFSET_WORK`].
fn rows_to_cover(arity: usize, rows: &[(String, char)], offset_work: &mut u64) -> Option<Sop> {
    let mut on_rows: Vec<Cube> = Vec::new();
    let mut off_rows: Vec<Cube> = Vec::new();
    for (plane, out) in rows {
        let mut lits: Vec<(usize, bool)> = Vec::new();
        for (pos, ch) in plane.chars().enumerate() {
            match ch {
                '1' => lits.push((pos, true)),
                '0' => lits.push((pos, false)),
                _ => {}
            }
        }
        let cube = Cube::from_literals(arity.max(1), &lits);
        if *out == '1' {
            on_rows.push(cube);
        } else {
            off_rows.push(cube);
        }
    }
    if off_rows.is_empty() {
        return Some(Sop::from_cubes(arity, on_rows));
    }
    // Off-set rows define the complement; on-set = NOT(union of rows).
    let minterms = 1u64 << arity;
    let mut charge = |bits: u64| {
        *offset_work += bits;
        *offset_work <= MAX_OFFSET_WORK
    };
    if !charge(minterms * minterms) {
        return None;
    }
    let off = TruthTable::from_sop(arity, &Sop::from_cubes(arity, off_rows));
    let on = !&off;
    let primes = qm::prime_implicants(&on, &TruthTable::zero(arity));
    if !charge(minterms * primes.len() as u64) {
        return None;
    }
    Some(qm::select_cover(&on, &primes))
}

/// Serializes a [`SopNetwork`] to BLIF text.
///
/// The output round-trips through [`parse_blif`] to an equivalent
/// network (same interface and behaviour).
pub fn write_blif(net: &SopNetwork) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", net.name()));
    out.push_str(".inputs");
    for &i in net.inputs() {
        out.push_str(&format!(" {}", net.sig_name(i)));
    }
    out.push('\n');
    out.push_str(".outputs");
    for &o in net.outputs() {
        out.push_str(&format!(" {}", net.sig_name(o)));
    }
    out.push('\n');
    for sig in net.node_sigs() {
        let node = net.node_of(sig).expect("node sig");
        out.push_str(".names");
        for &f in node.inputs() {
            out.push_str(&format!(" {}", net.sig_name(f)));
        }
        out.push_str(&format!(" {}\n", net.sig_name(sig)));
        let arity = node.inputs().len();
        for cube in node.cover().cubes() {
            let mut plane = String::with_capacity(arity);
            for pos in 0..arity {
                plane.push(match cube.literal(pos) {
                    Some(true) => '1',
                    Some(false) => '0',
                    None => '-',
                });
            }
            if arity == 0 {
                out.push_str("1\n");
            } else {
                out.push_str(&format!("{plane} 1\n"));
            }
        }
        if node.cover().is_empty() {
            // Constant-zero node: BLIF convention is an empty cover, which
            // is exactly "no rows" — nothing to emit.
        }
    }
    out.push_str(".end\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_and() {
        let net = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n")
            .expect("valid blif");
        assert_eq!(net.inputs().len(), 2);
        assert_eq!(net.eval(&[true, true]), vec![true]);
        assert_eq!(net.eval(&[false, true]), vec![false]);
    }

    #[test]
    fn parse_dontcare_rows_and_comments() {
        let src = "# comment\n.model m\n.inputs a b c\n.outputs y\n.names a b c y\n1-1 1\n01- 1\n.end\n";
        let net = parse_blif(src).expect("valid");
        for m in 0..8u64 {
            let a = m & 1 != 0;
            let b = m & 2 != 0;
            let c = m & 4 != 0;
            let expect = (a && c) || (!a && b);
            assert_eq!(net.eval(&[a, b, c]), vec![expect], "m={m}");
        }
    }

    #[test]
    fn parse_offset_rows() {
        // y defined by its off-set: y=0 iff a=1,b=1 → y = NAND.
        let src = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n";
        let net = parse_blif(src).expect("valid");
        assert_eq!(net.eval(&[true, true]), vec![false]);
        assert_eq!(net.eval(&[true, false]), vec![true]);
    }

    #[test]
    fn parse_forward_references() {
        let src = ".model m\n.inputs a b\n.outputs y\n.names t y\n1 1\n.names a b t\n11 1\n.end\n";
        let net = parse_blif(src).expect("forward refs resolve");
        assert_eq!(net.eval(&[true, true]), vec![true]);
    }

    #[test]
    fn parse_line_continuation() {
        let src = ".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let net = parse_blif(src).expect("continuation");
        assert_eq!(net.inputs().len(), 2);
    }

    #[test]
    fn constant_nodes() {
        let src = ".model m\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n";
        let net = parse_blif(src).expect("constants");
        assert_eq!(net.eval(&[false]), vec![true, false]);
    }

    #[test]
    fn errors_have_line_numbers() {
        let err = parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n12 1\n.end\n")
            .expect_err("bad row");
        assert_eq!(err.line(), 5);
        let err = parse_blif(".model m\n.latch a b\n.end\n").expect_err("latch");
        assert!(err.to_string().contains("unsupported"));
        let err = parse_blif(".model m\n.inputs a\n.outputs y\n.end\n").expect_err("undefined");
        assert!(err.to_string().contains("never defined"));
    }

    #[test]
    fn degenerate_inputs_are_errors_not_panics() {
        // Empty .names (no signals at all).
        let err = parse_blif(".model m\n.inputs a\n.outputs y\n.names\n.end\n")
            .expect_err("empty names");
        assert_eq!(err.line(), 4);
        // Duplicate .outputs entry used to trip a mark_output assert.
        let err = parse_blif(".model m\n.inputs a\n.outputs y y\n.names a y\n1 1\n.end\n")
            .expect_err("duplicate output");
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("listed twice"));
        // Undefined output now points at the .outputs directive.
        let err = parse_blif(".model m\n.inputs a\n.outputs ghost\n.end\n")
            .expect_err("undefined output");
        assert_eq!(err.line(), 3);
        // Duplicate input points at the .inputs directive.
        let err = parse_blif(".model m\n.inputs a a\n.outputs a\n.end\n")
            .expect_err("duplicate input");
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn oversized_names_block_rejected() {
        // 21 fanins would overflow the truth-table limit during off-set
        // complementation; reject at parse time with the .names line.
        let fanins: Vec<String> = (0..21).map(|i| format!("x{i}")).collect();
        let src = format!(
            ".model m\n.inputs {}\n.outputs y\n.names {} y\n{} 0\n.end\n",
            fanins.join(" "),
            fanins.join(" "),
            "1".repeat(21)
        );
        let err = parse_blif(&src).expect_err("too many fanins");
        assert_eq!(err.line(), 4);
        assert!(err.to_string().contains("exceeds the supported maximum"));
    }

    #[test]
    fn wide_offset_names_block_rejected() {
        let doc = |n: usize, out: char| {
            let fanins: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            let fanins = fanins.join(" ");
            let row = "1".repeat(n);
            format!(
                ".model m\n.inputs {fanins}\n.outputs y\n.names {fanins} y\n{row} {out}\n.end\n"
            )
        };
        // At the limit the off-set is complemented; one fanin more is a
        // typed reject at the .names line, before any minimization.
        let net = parse_blif(&doc(MAX_OFFSET_FANINS, '0')).expect("off-set at the limit");
        assert_eq!(net.eval(&[true; MAX_OFFSET_FANINS]), vec![false]);
        let err = parse_blif(&doc(MAX_OFFSET_FANINS + 1, '0')).expect_err("wide off-set");
        assert_eq!(err.line(), 4);
        let limit = format!("limited to {MAX_OFFSET_FANINS} fanins");
        assert!(err.to_string().contains(&limit), "{err}");
        // The limit is on off-set rows only: a wide on-set cover parses.
        parse_blif(&doc(MAX_OFFSET_FANINS + 1, '1')).expect("wide on-set");
    }

    /// A document of `blocks` single-row off-set blocks of 10 fanins.
    fn offset_blocks_doc(blocks: usize) -> String {
        let fanins: Vec<String> = (0..MAX_OFFSET_FANINS).map(|i| format!("x{i}")).collect();
        let fanins = fanins.join(" ");
        let mut doc = format!(".model m\n.inputs {fanins}\n.outputs y0\n");
        for b in 0..blocks {
            doc.push_str(&format!(".names {fanins} y{b}\n1-0-1-0-1- 0\n"));
        }
        doc
    }

    #[test]
    fn offset_work_is_capped_per_document() {
        // Twenty blocks stay well inside the cap and parse exactly.
        let net = parse_blif(&offset_blocks_doc(20)).expect("20 off-set blocks");
        assert_eq!(net.num_nodes(), 20);
        let block_work = (1u64 << 20) + (1 << 10) * 5; // 5 primes per complement
        let fits = (MAX_OFFSET_WORK / block_work) as usize;
        parse_blif(&offset_blocks_doc(fits)).expect("blocks up to the cap");
        // One block more is a typed reject at that block's .names line.
        let err = parse_blif(&offset_blocks_doc(fits + 1)).expect_err("past the cap");
        assert_eq!(err.line(), 4 + 2 * fits, "{err}");
        assert!(err.to_string().contains("complementation work limit"), "{err}");
    }

    #[test]
    fn invalid_plane_character_rejected() {
        let err = parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n")
            .expect_err("bad plane char");
        assert_eq!(err.line(), 5);
        assert!(err.to_string().contains("'x'"));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let src = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n";
        assert!(parse_blif(src).is_err());
    }

    #[test]
    fn cycle_detected() {
        let src = ".model m\n.inputs a\n.outputs y\n.names z y\n1 1\n.names y z\n1 1\n.end\n";
        let err = parse_blif(src).expect_err("cycle");
        assert!(err.to_string().contains("cyclic"));
    }

    #[test]
    fn roundtrip() {
        let src = ".model rt\n.inputs a b c\n.outputs y z\n.names a b t\n11 1\n00 1\n.names t c y\n1- 1\n-1 1\n.names a z\n0 1\n.end\n";
        let net = parse_blif(src).expect("valid");
        let text = write_blif(&net);
        let net2 = parse_blif(&text).expect("roundtrip parses");
        for m in 0..8u64 {
            let a: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(net.eval(&a), net2.eval(&a), "m={m}");
        }
    }
}
