/* Reduction-pragma loops for the exec test: three that carry no
   reduction and must run as plain loops, and a control that does. */

double shadowed(double *x, int n) {
  double s = 0.0;
  #pragma igen reduce s
  for (int i = 0; i < n; i++) {
    double s = x[i];
    s = s + x[i];
    x[i] = s;
  }
  return s;
}

void moving(double *y, double *x, int n) {
  int k = 0;
  #pragma igen reduce y
  for (int i = 0; i < n; i++) {
    y[k] = y[k] + x[i];
    k = k + 1;
  }
}

double prefix(double *y, double *x, int n) {
  double s = 0.0;
  #pragma igen reduce s
  for (int i = 0; i < n; i++) {
    s = s + x[i];
    y[i] = s;
  }
  return s;
}

double dot(double *a, double *b, int n) {
  double s = 0.0;
  #pragma igen reduce s
  for (int i = 0; i < n; i++)
    s = s + a[i] * b[i];
  return s;
}
