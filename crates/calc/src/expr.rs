//! Scalar expressions, predicates and aggregate functions.

use hana_common::{HanaError, Result, Value};

/// A scalar expression evaluated against one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The value of a column (by position).
    Column(usize),
    /// A constant.
    Literal(Value),
    /// Numeric addition.
    Add(Box<Expr>, Box<Expr>),
    /// Numeric subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Numeric multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Numeric division (NULL on division by zero).
    Div(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Shorthand for a column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Column(i)
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Multiply two expressions.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Add two expressions.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| HanaError::Query(format!("column {i} out of range"))),
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Add(a, b) => numeric(a.eval(row)?, b.eval(row)?, |x, y| x + y),
            Expr::Sub(a, b) => numeric(a.eval(row)?, b.eval(row)?, |x, y| x - y),
            Expr::Mul(a, b) => numeric(a.eval(row)?, b.eval(row)?, |x, y| x * y),
            Expr::Div(a, b) => {
                let (x, y) = (a.eval(row)?, b.eval(row)?);
                match (x.as_numeric(), y.as_numeric()) {
                    (Some(_), Some(0.0)) => Ok(Value::Null),
                    _ => numeric(x, y, |x, y| x / y),
                }
            }
        }
    }

    /// Column positions referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Column(i) => out.push(*i),
            Expr::Literal(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.referenced_columns(out);
                b.referenced_columns(out);
            }
        }
    }
}

fn numeric(a: Value, b: Value, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    match (a.as_numeric(), b.as_numeric()) {
        (Some(x), Some(y)) => {
            // Integer arithmetic stays integral when both sides are ints and
            // the result is whole.
            let r = f(x, y);
            if matches!((&a, &b), (Value::Int(_), Value::Int(_))) && r.fract() == 0.0 {
                Ok(Value::Int(r as i64))
            } else {
                Ok(Value::double(r))
            }
        }
        _ if a.is_null() || b.is_null() => Ok(Value::Null),
        _ => Err(HanaError::Query(format!(
            "non-numeric operands {a} and {b}"
        ))),
    }
}

/// A row predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// `col = v`.
    Eq(usize, Value),
    /// `col <> v` (NULL-rejecting).
    Ne(usize, Value),
    /// `col < v`.
    Lt(usize, Value),
    /// `col <= v`.
    Le(usize, Value),
    /// `col > v`.
    Gt(usize, Value),
    /// `col >= v`.
    Ge(usize, Value),
    /// `lo <= col < hi` (half-open, matching dictionary code ranges).
    Between(usize, Value, Value),
    /// `col IN (…)`.
    InSet(usize, Vec<Value>),
    /// `col IS NULL`.
    IsNull(usize),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Evaluate against a row. NULL comparisons are false (SQL semantics),
    /// except `IsNull`.
    pub fn eval(&self, row: &[Value]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => !row[*c].is_null() && &row[*c] == v,
            Predicate::Ne(c, v) => !row[*c].is_null() && &row[*c] != v,
            Predicate::Lt(c, v) => !row[*c].is_null() && row[*c] < *v,
            Predicate::Le(c, v) => !row[*c].is_null() && row[*c] <= *v,
            Predicate::Gt(c, v) => !row[*c].is_null() && row[*c] > *v,
            Predicate::Ge(c, v) => !row[*c].is_null() && row[*c] >= *v,
            Predicate::Between(c, lo, hi) => !row[*c].is_null() && row[*c] >= *lo && row[*c] < *hi,
            Predicate::InSet(c, vs) => !row[*c].is_null() && vs.contains(&row[*c]),
            Predicate::IsNull(c) => row[*c].is_null(),
            Predicate::And(ps) => ps.iter().all(|p| p.eval(row)),
            Predicate::Or(ps) => ps.iter().any(|p| p.eval(row)),
            Predicate::Not(p) => !p.eval(row),
        }
    }

    /// Conjoin two predicates.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut a), Predicate::And(b)) => {
                a.extend(b);
                Predicate::And(a)
            }
            (Predicate::And(mut a), p) => {
                a.push(p);
                Predicate::And(a)
            }
            (p, Predicate::And(mut a)) => {
                a.insert(0, p);
                Predicate::And(a)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// Column positions referenced.
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            Predicate::True => {}
            Predicate::Eq(c, _)
            | Predicate::Ne(c, _)
            | Predicate::Lt(c, _)
            | Predicate::Le(c, _)
            | Predicate::Gt(c, _)
            | Predicate::Ge(c, _)
            | Predicate::Between(c, _, _)
            | Predicate::InSet(c, _)
            | Predicate::IsNull(c) => out.push(*c),
            Predicate::And(ps) | Predicate::Or(ps) => {
                for p in ps {
                    p.referenced_columns(out);
                }
            }
            Predicate::Not(p) => p.referenced_columns(out),
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (column ignored for counting, NULLs included).
    Count,
    /// Numeric sum over non-null values.
    Sum,
    /// Numeric average over non-null values.
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

/// Running state for one aggregate.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggFunc,
    count: u64,
    sum: f64,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    /// Fresh state for `func`.
    pub fn new(func: AggFunc) -> Self {
        AggState {
            func,
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }

    /// A state holding what a code-domain fold accumulated: the row count
    /// (`Count`), the non-null numeric count and sum (`Sum`/`Avg`), or the
    /// decoded extreme (`Min`/`Max`).
    pub(crate) fn from_parts(func: AggFunc, count: u64, sum: f64, extreme: Option<Value>) -> Self {
        let (min, max) = match func {
            AggFunc::Min => (extreme, None),
            AggFunc::Max => (None, extreme),
            _ => (None, None),
        };
        AggState {
            func,
            count,
            sum,
            min,
            max,
        }
    }

    /// Fold one input value.
    pub fn update(&mut self, v: &Value) {
        match self.func {
            AggFunc::Count => self.count += 1,
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(x) = v.as_numeric() {
                    self.count += 1;
                    self.sum += x;
                }
            }
            AggFunc::Min => {
                if !v.is_null() && self.min.as_ref().is_none_or(|m| v < m) {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if !v.is_null() && self.max.as_ref().is_none_or(|m| v > m) {
                    self.max = Some(v.clone());
                }
            }
        }
    }

    /// Merge another state (combine step of split/combine).
    pub fn merge(&mut self, other: &AggState) {
        debug_assert_eq!(self.func, other.func);
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = &other.min {
            if self.min.as_ref().is_none_or(|s| m < s) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_ref().is_none_or(|s| m > s) {
                self.max = Some(m.clone());
            }
        }
    }

    /// Final value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::double(self.sum),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::double(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::str("Campbell"),
            Value::double(2.5),
            Value::Null,
        ]
    }

    #[test]
    fn expr_arithmetic() {
        let r = row();
        assert_eq!(
            Expr::col(0).mul(Expr::lit(3)).eval(&r).unwrap(),
            Value::Int(30)
        );
        assert_eq!(
            Expr::col(0).add(Expr::col(2)).eval(&r).unwrap(),
            Value::double(12.5)
        );
        // NULL propagates.
        assert_eq!(
            Expr::col(3).add(Expr::lit(1)).eval(&r).unwrap(),
            Value::Null
        );
        // Division by zero → NULL.
        assert_eq!(
            Expr::Div(Box::new(Expr::lit(1)), Box::new(Expr::lit(0)))
                .eval(&r)
                .unwrap(),
            Value::Null
        );
        // Type errors surface.
        assert!(Expr::col(1).add(Expr::lit(1)).eval(&r).is_err());
        assert!(Expr::col(9).eval(&r).is_err());
    }

    #[test]
    fn predicate_semantics() {
        let r = row();
        assert!(Predicate::Eq(1, Value::str("Campbell")).eval(&r));
        assert!(Predicate::Between(0, Value::Int(5), Value::Int(11)).eval(&r));
        assert!(!Predicate::Between(0, Value::Int(5), Value::Int(10)).eval(&r)); // half-open
        assert!(Predicate::InSet(0, vec![Value::Int(9), Value::Int(10)]).eval(&r));
        assert!(Predicate::IsNull(3).eval(&r));
        // NULL comparisons are false, and NOT(false)=true.
        assert!(!Predicate::Eq(3, Value::Int(1)).eval(&r));
        assert!(!Predicate::Ne(3, Value::Int(1)).eval(&r));
        assert!(Predicate::Not(Box::new(Predicate::Eq(0, Value::Int(9)))).eval(&r));
        assert!(Predicate::And(vec![
            Predicate::Gt(0, Value::Int(5)),
            Predicate::Lt(0, Value::Int(15))
        ])
        .eval(&r));
        assert!(Predicate::Or(vec![
            Predicate::Eq(0, Value::Int(0)),
            Predicate::Eq(0, Value::Int(10))
        ])
        .eval(&r));
    }

    #[test]
    fn predicate_and_composition() {
        let p = Predicate::True.and(Predicate::Eq(0, Value::Int(1)));
        assert_eq!(p, Predicate::Eq(0, Value::Int(1)));
        let q = Predicate::Eq(0, Value::Int(1)).and(Predicate::Eq(1, Value::Int(2)));
        assert!(matches!(q, Predicate::And(ref v) if v.len() == 2));
    }

    #[test]
    fn referenced_columns() {
        let mut cols = Vec::new();
        Expr::col(2).mul(Expr::col(0)).referenced_columns(&mut cols);
        assert_eq!(cols, vec![2, 0]);
        let mut cols = Vec::new();
        Predicate::And(vec![Predicate::Eq(1, Value::Int(1)), Predicate::IsNull(3)])
            .referenced_columns(&mut cols);
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn aggregates_fold_and_merge() {
        let vals = [Value::Int(3), Value::Int(1), Value::Null, Value::Int(6)];
        for (f, want) in [
            (AggFunc::Count, Value::Int(4)),
            (AggFunc::Sum, Value::double(10.0)),
            (AggFunc::Min, Value::Int(1)),
            (AggFunc::Max, Value::Int(6)),
        ] {
            let mut s = AggState::new(f);
            for v in &vals {
                s.update(v);
            }
            assert_eq!(s.finish(), want, "{f:?}");
        }
        // Avg skips NULLs.
        let mut s = AggState::new(AggFunc::Avg);
        for v in &vals {
            s.update(v);
        }
        assert_eq!(s.finish(), Value::double(10.0 / 3.0));
        // Merge equals a single pass.
        let mut a = AggState::new(AggFunc::Sum);
        let mut b = AggState::new(AggFunc::Sum);
        a.update(&Value::Int(3));
        b.update(&Value::Int(7));
        a.merge(&b);
        assert_eq!(a.finish(), Value::double(10.0));
        // Empty aggregates.
        assert_eq!(AggState::new(AggFunc::Avg).finish(), Value::Null);
        assert_eq!(AggState::new(AggFunc::Min).finish(), Value::Null);
    }
}
