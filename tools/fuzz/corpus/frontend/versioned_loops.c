/* Sign-versioned innermost loops: each multiplies by a floating scalar
   the loop does not write, of a sign the range analysis cannot prove. */

void gemm(double *C, const double *A, const double *B, int n) {
  for (int i = 0; i < n; i++) {
    for (int k = 0; k < n; k++) {
      double a = A[i * n + k];
      for (int j = 0; j < n; j++) {
        C[i * n + j] = C[i * n + j] + a * B[k * n + j];
      }
    }
  }
}

void axpy(double alpha, const double *x, double *y, int n) {
  for (int i = 0; i < n; i++)
    y[i] = y[i] + alpha * x[i];
}

void ger(double *A, const double *x, const double *y, int m, int n) {
  for (int i = 0; i < m; i++) {
    double xi = x[i];
    for (int j = 0; j < n; j++)
      A[i * n + j] += xi * y[j];
  }
}

void scale_sub(double s, double t, const double *x, double *y, int n) {
  for (int i = 0; i < n; i++) {
    y[i] -= s * x[i];
    y[i] = x[i] * s + t * y[i] * s;
  }
}

double guarded(double a, const double *x, double *y, int n) {
  double r = 0.0;
  for (int i = 0; i < n; i++) {
    if (x[i] > 0.0)
      y[i] = a * x[i];
    else
      y[i] = x[i] * a - 1.0;
    r = r + y[i];
  }
  return r;
}

void tol_scale(double:0.01 g, double *y, int n) {
  for (int i = 0; i < n; i++)
    y[i] = g * y[i];
}

/* fuzz_frontend picks its options from a hash of these bytes; salt 7
   makes it compile this seed at -O with double precision. */
