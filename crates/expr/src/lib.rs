//! # gila-expr — expression DSL for hardware modeling
//!
//! The common expression language shared by every layer of the gila
//! platform: ILA specifications (`gila-core`), RTL implementations
//! (`gila-rtl`), transition systems (`gila-mc`), and the bit-blasting
//! decision procedure (`gila-smt`).
//!
//! Three sorts are supported ([`Sort`]): booleans, fixed-width
//! bit-vectors, and memories (arrays of words). Expressions are built
//! inside a hash-consing arena ([`ExprCtx`]) and referenced by cheap
//! copyable handles ([`ExprRef`]); structurally equal expressions are
//! shared and constants fold at construction time.
//!
//! # Examples
//!
//! ```
//! use gila_expr::{eval, Env, ExprCtx, Sort};
//!
//! let mut ctx = ExprCtx::new();
//! let wait = ctx.var("wait", Sort::Bv(1));
//! let _word = ctx.var("word_in", Sort::Bv(8));
//!
//! // The 8051 decoder's `stall` decode condition: wait == 1.
//! let stall = ctx.eq_u64(wait, 1);
//!
//! let mut env = Env::new();
//! env.bind_u64(&ctx, "wait", 1);
//! env.bind_u64(&ctx, "word_in", 0x75);
//! assert!(eval(&ctx, stall, &env)?.as_bool());
//! # Ok::<(), gila_expr::EvalError>(())
//! ```

#![warn(missing_docs)]

mod absval;
mod ctx;
mod display;
mod eval;
mod hash;
mod lower;
mod sort;
mod subst;
mod value;

pub use absval::{abs_apply, abs_eval, abs_eval_nodes, AbsBool, AbsBv, AbsEnv, AbsValue, Flat};
pub use ctx::{ExprCtx, ExprNode, ExprRef, Op, SortError};
pub use display::ExprDisplay;
pub use eval::{eval, eval_all, Env, EvalError};
pub use hash::{ExprHasher, ExprMap};
pub use lower::{Slot, TapeProgram, TapeState};
pub use sort::Sort;
pub use subst::{cofactor, import, import_mapped, substitute_cached, Cofactor};
pub use value::{BitVecValue, MemValue, Value};
