#include "workloads/kernels.hpp"

namespace pods::workloads {

std::string fill2dSource(int rows, int cols) {
  return R"(
// Figure 2 of the paper: A[i,j] = f(i,j) over a )" +
         std::to_string(rows) + "x" + std::to_string(cols) + R"( matrix.
inline def f(i: int, j: int) -> real {
  return real(i) * 10.0 + real(j);
}

def main() -> matrix {
  let A = matrix()" + std::to_string(rows) + ", " + std::to_string(cols) + R"();
  for i = 0 to )" + std::to_string(rows - 1) + R"( {
    for j = 0 to )" + std::to_string(cols - 1) + R"( {
      A[i,j] = f(i, j);
    }
  }
  return A;
}
)";
}

std::string matmulSource(int n) {
  const std::string N1 = std::to_string(n - 1);
  return R"(
def main() -> matrix {
  let n = )" + std::to_string(n) + R"(;
  let A = matrix(n, n);
  let B = matrix(n, n);
  for i = 0 to n - 1 {
    for j = 0 to n - 1 {
      A[i,j] = real(i) * 0.5 + real(j) * 0.125;
      B[i,j] = real(i) * 0.25 - real(j) * 0.0625;
    }
  }
  let C = matrix(n, n);
  for i = 0 to n - 1 {
    for j = 0 to n - 1 {
      let dot = for k = 0 to n - 1 carry (acc = 0.0) {
        next acc = acc + A[i,k] * B[k,j];
      } yield acc;
      C[i,j] = dot;
    }
  }
  return C;
}
)";
}

std::string stencilSource(int n, int steps) {
  return R"(
def main() -> matrix {
  let n = )" + std::to_string(n) + R"(;
  let steps = )" + std::to_string(steps) + R"(;
  let T0 = matrix(n, n);
  for i = 0 to n - 1 {
    for j = 0 to n - 1 {
      T0[i,j] = if i == 0 then 100.0 else real(i + j) * 0.01;
    }
  }
  let Tfinal = loop carry (T = T0, s = 0) while s < steps {
    let Tn = matrix(n, n);
    for i = 0 to n - 1 {
      for j = 0 to n - 1 {
        if i == 0 || i == n - 1 || j == 0 || j == n - 1 {
          Tn[i,j] = T[i,j];
        } else {
          Tn[i,j] = 0.25 * (T[i-1,j] + T[i+1,j] + T[i,j-1] + T[i,j+1]);
        }
      }
    }
    next T = Tn;
    next s = s + 1;
  } yield T;
  return Tfinal;
}
)";
}

std::string reduceSource(int n) {
  return R"(
def main() -> real {
  let n = )" + std::to_string(n) + R"(;
  let a = array(n);
  for i = 0 to n - 1 {
    a[i] = 1.0 + real(i) * 0.001;
  }
  let total = for i = 0 to n - 1 carry (acc = 0.0) {
    next acc = acc + a[i];
  } yield acc;
  return total;
}
)";
}

std::string reversalSource(int n) {
  return R"(
// Adversarial array ownership: iteration i writes b[i] but reads the
// block-layout mirror element a[n-1-i], owned by a different PE for nearly
// every i. Under the wire store almost every read is a remote ReadReq, and
// because b's loop races a's fill, many of them park as deferred reads at
// the owner until the write arrives.
def main() {
  let n = )" + std::to_string(n) + R"(;
  let a = array(n);
  let b = array(n);
  for i = 0 to n - 1 {
    a[i] = real(i) * 0.5 + 1.0;
  }
  for i = 0 to n - 1 {
    b[i] = a[n - 1 - i] * 2.0 + real(i) * 0.125;
  }
  let s = for i = 0 to n - 1 carry (acc = 0.0) {
    next acc = acc + b[i];
  } yield acc;
  return b, s;
}
)";
}

std::string spreadFibSource(int n) {
  return R"(
def fib(n: int) -> int {
  let r = if n < 2 then n else fib(n - 1) + fib(n - 2);
  return r;
}
def main() -> real {
  let n = )" + std::to_string(n) + R"(;
  let v = array(n);
  for k = 0 to n - 1 {
    v[k] = real(fib(5 + k % 5));
  }
  let s = for k = 0 to n - 1 carry (acc = 0.0) {
    next acc = acc + v[k];
  } yield acc;
  return s;
}
)";
}

std::string triangularSource(int n) {
  return R"(
def main() -> array {
  let n = )" + std::to_string(n) + R"(;
  let W = matrix(n, n);
  for i = 0 to n - 1 {
    for j = 0 to i {
      W[i,j] = sqrt(real(i * n + j) + 1.0);
    }
  }
  let sums = array(n);
  for i = 0 to n - 1 {
    let s = for j = 0 to i carry (acc = 0.0) {
      next acc = acc + W[i,j];
    } yield acc;
    sums[i] = s;
  }
  return sums;
}
)";
}

}  // namespace pods::workloads
