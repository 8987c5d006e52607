/* Kernels exercising the mid-end optimizer: guard-derived sign facts,
   sign-specialized multiplies and divides, FMA fusion, CSE,
   loop-invariant hoisting, sign-versioned loops and the axpy/dot loops
   -O routes to row kernels. Compiled twice
   (default -O and -O0) so the exec test can compare enclosures. */

double opt_horner(const double *coef, double x, int d) {
  double r = 0.0;
  if (x > 0.0) {
    r = coef[d];
    for (int k = d - 1; k >= 0; k--) {
      r = r * x + coef[k];
    }
  }
  return r;
}

double opt_pade(double x) {
  double r = 0.0;
  if (x > 0.0) {
    double p = 0.125 + x * (2.0 + x);
    double q = 2.0 + x * (0.5 + x);
    r = p / q;
  }
  return r;
}

double opt_henon(double x, double y, int n) {
  double a = 1.05;
  double b = 0.3;
  for (int i = 0; i < n; i++) {
    double xi = x;
    double yi = y;
    x = 1 - a * xi * xi + yi;
    y = b * xi;
  }
  return x;
}

double opt_invsq(double x) {
  double r = 0.0;
  if (x > 1.0) {
    r = 1.0 / (x * x);
  }
  return r;
}

double opt_negsq(double x, double y) {
  double r = 0.0;
  if (x < 0.0) {
    if (y < x) {
      r = x * y;
    }
  }
  return r;
}

double opt_elem(double x) {
  double r = 0.0;
  if (x > 0.0) {
    r = exp(0.5 * sin(x)) + log(2.0 + cos(x));
  }
  return r;
}

double opt_cse(const double *v, double a, double b, int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s = s + (a * b + 1.0) * v[i] + (a * b + 1.0);
  }
  return s;
}

void opt_gemm(double *C, const double *A, const double *B, int n) {
  for (int i = 0; i < n; i++) {
    for (int k = 0; k < n; k++) {
      double a = A[i * n + k];
      for (int j = 0; j < n; j++) {
        C[i * n + j] = C[i * n + j] + a * B[k * n + j];
      }
    }
  }
}

void opt_axpy(double alpha, const double *x, double *y, int n) {
  for (int i = 0; i < n; i++) {
    y[i] = y[i] + alpha * x[i];
  }
}

void opt_axmy(double alpha, const double *x, double *y, int n) {
  for (int i = 0; i < n; i++) {
    y[i] -= alpha * x[i];
  }
}

void opt_scale(double alpha, const double *x, double *y, int n) {
  for (int i = 0; i < n; i++) {
    y[i] = x[i] * alpha;
  }
}

void opt_mvm(const double *A, const double *x, double *y, int m, int n) {
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      y[i] = y[i] + A[i * n + j] * x[j];
    }
  }
}

double opt_ffnn_row(const double *W, const double *b, const double *x,
                    int n) {
  double s = b[0];
  for (int i = 0; i < n; i++) {
    s = s + W[i] * x[i];
  }
  return s;
}

double opt_potrf_diag(const double *A, int n, int j) {
  double s = A[j * n + j];
  for (int k = 0; k < j; k++) {
    s = s - A[j * n + k] * A[j * n + k];
  }
  return s;
}
